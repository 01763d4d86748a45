//! The workloads, by name.

pub mod durable;
pub mod fraud;
pub mod hub;
pub mod oneshot;

use crate::reference;
use crate::Workload;
use pce_core::Algorithm;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "fraud_temporal",
    "portfolio_durable",
    "hub_bursts",
    "oneshot_johnson",
    "oneshot_read_tarjan",
];

/// The workload called `name` and its default seed.
pub fn by_name(name: &str) -> Option<(Box<dyn Workload>, u64)> {
    Some(match name {
        "fraud_temporal" => (
            Box::new(fraud::FraudTemporal::default()) as Box<dyn Workload>,
            reference::FRAUD_SEED,
        ),
        "portfolio_durable" => (
            Box::new(durable::PortfolioDurable::default()),
            reference::DURABLE_SEED,
        ),
        "hub_bursts" => (Box::new(hub::HubBursts), reference::HUB_SEED),
        "oneshot_johnson" => (
            Box::new(oneshot::OneShot::new(Algorithm::Johnson)),
            reference::ONESHOT_SEED,
        ),
        "oneshot_read_tarjan" => (
            Box::new(oneshot::OneShot::new(Algorithm::ReadTarjan)),
            reference::ONESHOT_SEED,
        ),
        _ => return None,
    })
}
