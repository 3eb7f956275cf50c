//! The ROLP reproduction's end-to-end benchmark.
//!
//! It links the workspace crates as a library and drives the entry points
//! the binaries use: [`rolp_workloads::execute_hooked`] for the batch
//! workloads (as `rolp-sim` does) and [`rolp_serve::serve_with`] for the
//! served one (as `rolp-serve` does). Host time — what a user of the
//! simulator waits for — is measured around those calls; simulated,
//! *modeled* results come from the runs' own reports. A traced run adds
//! timing decorators at every layer's public trait ([`layers`]) for the
//! per-layer host split. `run.py` next to this crate drives the binary
//! and aggregates runs into the benchmark's result line.

pub mod config;
pub mod json;
pub mod layers;
pub mod measure;

pub use config::{WorkloadId, DEFAULT_SEED};
pub use layers::{Decorate, LayerClock};
pub use measure::{run, run_traced, setup_only, Sample};
