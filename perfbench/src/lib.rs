//! The repository benchmark: seeded workload inputs, one end-to-end
//! operation per workload, the traced run's per-layer probes, and the
//! metric declarations `BENCHMARK.json` mirrors. See `README.md`.

pub mod e2e;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod spans;
pub mod stats;
