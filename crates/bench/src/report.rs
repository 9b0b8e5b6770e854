//! Shared workloads and report plumbing for the fleet bench binaries.
//!
//! The `scenarios`, `control`, `trace` and `accuracy` bins all emit
//! deterministic JSON artifacts under the same contract — no
//! wall-clock fields, fixed-precision floats, conservation and worker
//! invariance asserted before anything is written. The records are
//! built as [`Json`](pcnna_fleet::scenario::json::Json) values, with
//! six-digit [`fixed`](pcnna_fleet::scenario::json::fixed) floats.
//!
//! This module defines each workload the bins run once, as a
//! [`ScenarioSpec`] the bins compile: the chaos-matrix leg
//! ([`chaos_spec`], with its fault section [`chaos_faults`]), the
//! committed scenario files ([`committed_specs`]), and the diurnal
//! control workload ([`diurnal_spec`], run under [`control_config`]).
//! It also holds the rest of the report contract so the bins cannot
//! drift apart: the bookkeeping invariant ([`assert_books`]), the
//! worker-invariance check ([`simulate_invariant`]), and artifact
//! writing ([`write_artifact`]).

use pcnna_fleet::prelude::{
    ArrivalProcess, ChaosKind, ClassSpec, ControlConfig, DegradationLimits, FaultSpec, FleetReport,
    FleetScenario, InstanceSpec, Policy, ScenarioSpec,
};

/// Asserts the fleet ledger balances: every offered request was
/// admitted or rejected, and every admitted request reached exactly
/// one terminal state (`admitted = completed + unserved + shed`).
/// Open-loop runs have `shed = 0`, so the same invariant covers both
/// bench paths.
///
/// # Panics
///
/// Panics (with `label` in the message) if either book is off — a
/// dropped or duplicated request anywhere in the engine.
pub fn assert_books(report: &FleetReport, label: &str) {
    assert_eq!(
        report.offered,
        report.admitted + report.rejected,
        "{label}: offered/admitted/rejected books must balance"
    );
    assert_eq!(
        report.admitted,
        report.completed + report.resilience.unserved + report.resilience.shed,
        "{label}: conservation (admitted = completed + unserved + shed)"
    );
}

/// Simulates `scenario` on one worker and asserts that every
/// `(shards, threads)` layout in `layouts` reproduces that report bit
/// for bit; listing a layout twice also checks the re-run. Returns the
/// one-worker report.
///
/// # Panics
///
/// Panics (with `label` in the message) if the scenario is invalid or
/// any layout's report differs.
#[must_use]
pub fn simulate_invariant(
    scenario: &FleetScenario,
    layouts: &[(usize, usize)],
    label: &str,
) -> FleetReport {
    let oracle = scenario.simulate_sharded(1, 1).expect("scenario is valid");
    for &(shards, threads) in layouts {
        let report = scenario
            .simulate_sharded(shards, threads)
            .expect("scenario is valid");
        assert_eq!(
            report, oracle,
            "{label}: shards={shards} threads={threads} must reproduce the \
             same plan run on one worker bit-for-bit"
        );
    }
    oracle
}

/// The serving mix every fleet bench runs: a latency-tight AlexNet
/// class against a cheap, heavily weighted LeNet class — enough
/// contrast that scheduling and degradation visibly move per-class
/// numbers.
fn serving_class_specs() -> Vec<ClassSpec> {
    [("alexnet", 0.004, 1.0), ("lenet5", 0.001, 3.0)]
        .map(|(network, slo_s, weight)| ClassSpec {
            network: network.to_owned(),
            slo_s,
            weight,
            min_accuracy: 0.0,
        })
        .to_vec()
}

/// The fault-free serving fleet both workloads share: the
/// [`serving_class_specs`] mix under network-affinity batching on
/// `fleet` default instances.
fn serving_spec(
    name: &str,
    fleet: usize,
    arrival: ArrivalProcess,
    horizon_s: f64,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_owned(),
        classes: serving_class_specs(),
        arrival,
        policy: Policy::NetworkAffinity,
        instances: vec![InstanceSpec::defaults(fleet)],
        max_batch: 32,
        queue_capacity: 100_000,
        resident_weights: true,
        accuracy_routing: false,
        horizon_s,
        seed,
        limits: DegradationLimits::default(),
        faults: FaultSpec::default(),
        control: None,
    }
}

/// The chaos generator reference the bench bins share: a recalibration
/// window sized to the mode's horizon and the run's seed.
#[must_use]
pub fn chaos_faults(kind: ChaosKind, smoke: bool, seed: u64) -> FaultSpec {
    FaultSpec::Chaos {
        kind,
        recalibration_s: if smoke { 2e-3 } else { 10e-3 },
        seed,
    }
}

/// One chaos-matrix leg: the serving fleet under Poisson load, loaded
/// to where degradation visibly moves the needle without saturating
/// the healthy baseline. The committed `scenarios/<kind>.json` files
/// are `chaos_spec(kind, true, 7)`.
#[must_use]
pub fn chaos_spec(kind: ChaosKind, smoke: bool, seed: u64) -> ScenarioSpec {
    let (fleet, rate_rps, horizon_s) = if smoke {
        (4, 45_000.0, 0.05)
    } else {
        (6, 90_000.0, 0.5)
    };
    let arrival = ArrivalProcess::Poisson { rate_rps };
    ScenarioSpec {
        faults: chaos_faults(kind, smoke, seed),
        ..serving_spec(kind.name(), fleet, arrival, horizon_s, seed)
    }
}

/// The committed demo scenario the `fault_tolerance` example loads: the
/// smoke fleet under a longer heat wave with a 5 ms re-lock window.
fn demo_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "heat-wave-demo".to_owned(),
        horizon_s: 0.25,
        faults: FaultSpec::Chaos {
            kind: ChaosKind::HeatWave,
            recalibration_s: 5e-3,
            seed: 7,
        },
        ..chaos_spec(ChaosKind::HeatWave, true, 7)
    }
}

/// The specs the committed files under `scenarios/` are rendered
/// from: the four smoke-mode matrix legs at seed 7, then the demo.
#[must_use]
pub fn committed_specs() -> Vec<ScenarioSpec> {
    let legs = ChaosKind::ALL.map(|kind| chaos_spec(kind, true, 7));
    legs.into_iter().chain([demo_spec()]).collect()
}

/// The control workload: the serving fleet under a 10:1 diurnal swing,
/// sized so the peak needs most of the fleet while the trough leaves
/// most of it idle — the regime autoscaling exists for. Variants (MMPP
/// arrivals, a chaos fault section) are struct updates of it.
#[must_use]
pub fn diurnal_spec(smoke: bool, seed: u64) -> ScenarioSpec {
    let (fleet, peak_rps, horizon_s, period_s) = if smoke {
        (6, 60_000.0, 0.08, 0.08)
    } else {
        (8, 90_000.0, 0.4, 0.2)
    };
    let arrival = ArrivalProcess::Diurnal {
        base_rps: 0.1 * peak_rps,
        peak_rps,
        period_s,
    };
    serving_spec("diurnal", fleet, arrival, horizon_s, seed)
}

/// The control-loop parameters every controlled bench run uses.
#[must_use]
pub fn control_config() -> ControlConfig {
    ControlConfig {
        window_s: 0.002,
        boot_s: 0.004,
        min_active: 1,
        initial_active: usize::MAX,
        max_step: 4,
        idle_power_w: 2.0,
    }
}

/// Writes a bench artifact, reporting success on stdout and failure on
/// stderr without aborting the run — CI treats the artifact as
/// best-effort and gates on the in-process asserts instead.
pub fn write_artifact(path: &str, payload: &str) {
    match std::fs::write(path, payload) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_classes_mix_is_stable() {
        let classes = serving_class_specs();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].network, "alexnet");
        assert_eq!(classes[1].network, "lenet5");
    }

    #[test]
    fn matrix_specs_are_valid_and_mode_scaled() {
        for kind in ChaosKind::ALL {
            let smoke = chaos_spec(kind, true, 7);
            assert!(smoke.validate().is_ok(), "{kind:?} smoke spec invalid");
            assert_eq!(smoke.n_instances(), 4);
            let full = chaos_spec(kind, false, 7);
            assert!(full.validate().is_ok(), "{kind:?} full spec invalid");
            assert_eq!(full.n_instances(), 6);
            assert!(full.horizon_s > smoke.horizon_s);
        }
        assert!(diurnal_spec(true, 7).validate().is_ok());
        assert!(diurnal_spec(false, 7).validate().is_ok());
        assert!(control_config().validate().is_ok());
    }

    #[test]
    fn chaos_config_scales_recalibration_with_mode() {
        let recal = |smoke| match chaos_faults(ChaosKind::HeatWave, smoke, 9) {
            FaultSpec::Chaos {
                recalibration_s,
                seed,
                ..
            } => {
                assert_eq!(seed, 9);
                recalibration_s
            }
            FaultSpec::Events(_) => unreachable!("chaos_faults is a chaos reference"),
        };
        assert!(recal(true) < recal(false));
    }

    #[test]
    fn committed_scenario_files_match_their_specs() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        for spec in committed_specs() {
            let path = format!("{dir}/{}.json", spec.name);
            let loaded = ScenarioSpec::load(&path).expect("committed scenario file");
            assert_eq!(
                loaded, spec,
                "{path} drifted from its spec (regenerate with \
                 `scenarios --emit-files scenarios`)"
            );
        }
    }
}
