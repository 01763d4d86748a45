//! Output checks: every operation and every check of an output is one
//! attempt; an `Err` from the system or a wrong output is one failure.

/// Counts attempted and failed operations and keeps the first few failures
/// for the log.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Failure descriptions kept for the log (the count is always exact).
const MAX_NOTES: usize = 20;

impl Checker {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation or check; `what` describes a failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Records the outcome of a fallible call, passing the value through.
    pub fn op<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.record(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Compares named totals against the expected ones: one check per
    /// expected name; a missing or different total fails it.
    pub fn totals(&mut self, context: &str, expected: &[(String, u64)], got: &[(String, u64)]) {
        for (name, want) in expected {
            let have = got.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            self.record(have == Some(*want), || {
                format!("{context}: {name} total {have:?}, expected {want}")
            });
        }
    }

    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations and checks failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first recorded failures.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}
