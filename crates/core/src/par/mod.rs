//! Parallel enumeration algorithms.
//!
//! * [`coarse`] — the coarse-grained parallel versions of §4: one task per
//!   starting (root) edge, dynamically scheduled. Work efficient but not
//!   scalable (Theorem 4.2).
//! * [`fine_johnson`] — the fine-grained parallel Johnson algorithm of §5:
//!   unexplored branches of an active rooted search can be stolen by idle
//!   workers via copy-on-steal with recursive unblocking. Scalable but not
//!   work efficient (Theorems 5.1/5.2).
//! * [`fine_read_tarjan`] — the fine-grained parallel Read-Tarjan algorithm of
//!   §6: every recursive call is an independent task carrying copies of its
//!   path and blocked set. Both scalable and work efficient (Theorems
//!   6.1/6.2).
//!
//! These are the simple-cycle drivers. Temporal queries (§7) run the coarse
//! and fine drivers of [`crate::delta`] instead: one frame search with
//! copy-on-steal, rooted at each cycle's maximum edge, for Johnson and (with
//! a completion probe) Read-Tarjan alike.

pub mod coarse;
pub mod fine_johnson;
pub mod fine_read_tarjan;
