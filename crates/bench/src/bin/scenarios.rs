//! Chaos scenario matrix: replays the named degradation scenarios
//! (heat wave, laser aging, channel-loss burst, rolling recalibration)
//! against a serving fleet and reports resilience figures next to a
//! fault-free baseline — run with `cargo run --release --bin scenarios`.
//!
//! Flags: `--smoke` shrinks the fleet/horizon to CI size,
//! `--scenario <name>` runs one named scenario (the CI matrix fans out
//! one job per name), `--seed <n>` overrides the chaos seed,
//! `--shards <n>` sets the shard-worker count (default 4),
//! `--file <path>` runs a declarative scenario file instead of the
//! named matrix, `--fuzz <n>` runs a seeded generative fuzz campaign
//! of `n` scenarios against the full oracle suite (emitting
//! `BENCH_fuzz.json`; violations are shrunk into `tests/regressions/`
//! and fail the run), and `--emit-files <dir>` regenerates the
//! canonical committed scenario files under `scenarios/`.
//!
//! Every workload is a `ScenarioSpec` (`pcnna_bench::report`) compiled
//! here; the matrix legs and `--file` run through one leg runner. Each
//! report is produced by the **sharded engine** and asserted
//! bit-identical against the same plan run on one worker, and against a
//! re-run — the two-layer determinism contract CI relies on: same seed
//! ⇒ same report, at any shard count. The emitted artifacts
//! deliberately carry **no wall-clock measurements**, so two runs of the
//! same invocation — *at any `--shards` value* — produce byte-identical
//! files (CI `diff`s them across shard counts and re-runs). In smoke mode at the default seed, each committed
//! `scenarios/<name>.json` file is additionally asserted equal to its
//! leg's spec.

use pcnna_bench::cli;
use pcnna_bench::report::{
    assert_books, chaos_spec, committed_specs, simulate_invariant, write_artifact,
};
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};
use std::time::Instant;

struct Args {
    smoke: bool,
    only: Option<ChaosKind>,
    seed: u64,
    shards: usize,
    file: Option<String>,
    fuzz: Option<u64>,
    emit_files: Option<String>,
    shrink_demo: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        only: None,
        seed: 7,
        shards: 4,
        file: None,
        fuzz: None,
        emit_files: None,
        shrink_demo: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--scenario" => args.only = Some(cli::chaos_kind(it.next())),
            "--seed" => args.seed = cli::seed(it.next()),
            "--shards" => args.shards = cli::count(it.next(), "--shards needs an integer ≥ 1"),
            "--file" => {
                let usage = "--file needs a path to a scenario JSON file";
                args.file = it.next().or_else(|| cli::usage(usage));
            }
            "--fuzz" => {
                args.fuzz = Some(cli::count(it.next(), "--fuzz needs a scenario count ≥ 1"));
            }
            "--emit-files" => {
                args.emit_files = it
                    .next()
                    .or_else(|| cli::usage("--emit-files needs a directory"));
            }
            "--shrink-demo" => {
                args.shrink_demo = it
                    .next()
                    .or_else(|| cli::usage("--shrink-demo needs a directory"));
            }
            other => cli::usage(&format!(
                "unknown flag {other:?} (known: --smoke, --scenario <name>, \
                 --seed <n>, --shards <n>, --file <path>, --fuzz <n>, \
                 --emit-files <dir>, --shrink-demo <dir>)"
            )),
        }
    }
    args
}

/// One deterministic JSON record of a chaos run (no wall-clock fields).
fn record_for(name: &str, report: &FleetReport, baseline: &FleetReport) -> Json {
    let r = &report.resilience;
    json::obj([
        ("name", json::str(name)),
        ("offered", json::int(report.offered)),
        ("completed", json::int(report.completed)),
        ("rejected", json::int(report.rejected)),
        ("slo_attainment", json::fixed(report.slo_attainment, 6)),
        ("baseline_slo", json::fixed(baseline.slo_attainment, 6)),
        ("p99_ms", json::fixed(1e3 * report.latency.p99_s, 6)),
        ("availability", json::fixed(r.availability, 6)),
        ("failed_over", json::int(r.failed_over)),
        ("recalibrations", json::int(r.recalibrations)),
        ("hard_failures", json::int(r.hard_failures)),
        ("fault_events", json::int(r.fault_events)),
        ("unserved", json::int(r.unserved)),
        (
            "energy_per_request_mj",
            json::fixed(1e3 * report.energy_per_request_j, 6),
        ),
        ("deterministic", Json::Bool(true)),
    ])
}

/// Writes `BENCH_scenarios.json`: the run's shape from `scenario`, then
/// one record per leg. No wall-clock fields, so the file is
/// byte-identical across runs of the same invocation.
fn write_scenarios(mode: &str, scenario: &FleetScenario, records: Vec<Json>) {
    let artifact = json::obj([
        ("bench", json::str("scenarios")),
        ("mode", json::str(mode)),
        ("seed", json::int(scenario.seed)),
        ("instances", json::uint(scenario.instances.len())),
        ("rate_rps", json::fixed(scenario.arrival.mean_rate_rps(), 6)),
        ("horizon_s", json::fixed(scenario.horizon_s, 6)),
        ("scenarios", Json::Arr(records)),
    ]);
    write_artifact("BENCH_scenarios.json", &(artifact.render() + "\n"));
}

/// The leg runner: simulates `scenario` at `shards` workers, asserts
/// the one-worker report reproduces it, as does a re-run, and that the
/// books balance.
fn run_leg(scenario: &FleetScenario, shards: usize, label: &str) -> FleetReport {
    let report = simulate_invariant(scenario, &[(shards, shards), (shards, shards)], label);
    assert_books(&report, label);
    report
}

/// `scenario` with its fault timeline removed — the baseline a leg's
/// record is compared against.
fn fault_free(scenario: &FleetScenario) -> FleetScenario {
    FleetScenario {
        faults: FaultTimeline::new(),
        ..scenario.clone()
    }
}

/// Regenerates the canonical committed scenario files.
fn emit_files(dir: &str) {
    std::fs::create_dir_all(dir).expect("create scenario dir");
    for spec in committed_specs() {
        let path = format!("{dir}/{}.json", spec.name);
        std::fs::write(&path, spec.render()).expect("write scenario file");
        println!("wrote {path}");
    }
}

/// Runs one declarative scenario file: open loop against a fault-free
/// baseline (plus the controlled run when the file closes the loop),
/// with the same determinism asserts as the matrix.
fn run_file(path: &str, shards: usize) {
    let spec = ScenarioSpec::load(path).unwrap_or_else(|e| cli::usage(&e.to_string()));
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| cli::usage(&e.to_string()));
    let scenario = &compiled.scenario;
    println!(
        "scenario file {}: {} class(es), {} instance(s), {:.0} req/s mean for {} ms, \
         {} fault event(s)",
        spec.name,
        scenario.classes.len(),
        scenario.instances.len(),
        scenario.arrival.mean_rate_rps(),
        (1e3 * scenario.horizon_s) as u64,
        scenario.faults.len(),
    );
    let baseline = run_leg(&fault_free(scenario), shards, "baseline");
    let report = run_leg(scenario, shards, &spec.name);
    let r = &report.resilience;
    println!(
        "  SLO {:.2}% (baseline {:.2}%)  p99 {:.3} ms  availability {:.2}%  \
         {} failed over, {} recals, {} unserved",
        100.0 * report.slo_attainment,
        100.0 * baseline.slo_attainment,
        1e3 * report.latency.p99_s,
        100.0 * r.availability,
        r.failed_over,
        r.recalibrations,
        r.unserved,
    );
    if let Some(control) = &compiled.control {
        let mut policy = control.policy.build();
        let controlled = scenario
            .simulate_controlled(&control.config, policy.as_mut())
            .expect("scenario is valid");
        assert_books(&controlled.report, &format!("{} (controlled)", spec.name));
        println!(
            "  controlled ({}): SLO {:.2}%  {:.2} W mean  {} scale-ups, {} scale-downs, \
             {} shed",
            controlled.policy,
            100.0 * controlled.report.slo_attainment,
            controlled.power.mean_power_w,
            controlled.scale_ups,
            controlled.scale_downs,
            controlled.report.resilience.shed,
        );
    }
    write_scenarios(
        "file",
        scenario,
        vec![record_for(&spec.name, &report, &baseline)],
    );
}

/// Runs a seeded generative fuzz campaign against the full oracle
/// suite, shrinking any violation into `tests/regressions/` and
/// emitting the deterministic `BENCH_fuzz.json` summary.
fn run_fuzz(count: u64, seed: u64) {
    let t0 = Instant::now();
    let cfg = CampaignConfig {
        count,
        seed,
        regressions_dir: Some("tests/regressions".into()),
    };
    let oracles = default_oracles();
    println!(
        "fuzz campaign: {count} scenario(s), seed {seed}, oracles [{}]",
        oracles
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let summary = run_campaign(&cfg, &oracles).expect("campaign I/O");
    let mut records = Vec::with_capacity(summary.outcomes.len());
    for o in &summary.outcomes {
        if !o.violations.is_empty() {
            eprintln!("VIOLATION in {}:", o.name);
            for v in &o.violations {
                eprintln!("  {v}");
            }
            if let Some(min) = &o.shrunk {
                let events = match &min.faults {
                    FaultSpec::Events(e) => e.len(),
                    FaultSpec::Chaos { .. } => usize::MAX,
                };
                eprintln!(
                    "  shrunk to {} fault event(s) → tests/regressions/{}.json",
                    events, min.name
                );
            }
        }
        let violations = o
            .violations
            .iter()
            .map(|v| json::obj([("oracle", json::str(&v.oracle))]))
            .collect();
        records.push(json::obj([
            ("name", json::str(&o.name)),
            ("fault_events", json::uint(o.fault_events)),
            ("offered", json::int(o.offered)),
            ("completed", json::int(o.completed)),
            ("shed", json::int(o.shed)),
            ("unserved", json::int(o.unserved)),
            ("violations", Json::Arr(violations)),
        ]));
    }
    let total_offered: u64 = summary.outcomes.iter().map(|o| o.offered).sum();
    let total_completed: u64 = summary.outcomes.iter().map(|o| o.completed).sum();
    let artifact = json::obj([
        ("bench", json::str("fuzz")),
        ("seed", json::int(summary.seed)),
        ("count", json::int(summary.count)),
        (
            "oracles",
            Json::Arr(summary.oracles.iter().map(json::str).collect()),
        ),
        ("violations", json::uint(summary.violations())),
        ("offered", json::int(total_offered)),
        ("completed", json::int(total_completed)),
        ("scenarios", Json::Arr(records)),
    ]);
    write_artifact("BENCH_fuzz.json", &(artifact.render() + "\n"));
    println!(
        "{} scenario(s), {} request(s) offered, {} violation(s); campaign done in {:.2} s",
        summary.count,
        total_offered,
        summary.violations(),
        t0.elapsed().as_secs_f64()
    );
    if !summary.is_green() {
        eprintln!("fuzz campaign found oracle violations — see tests/regressions/");
        std::process::exit(1);
    }
}

/// The shrinker walkthrough (and the regeneration path for the seed
/// regression file): inject an intentionally breakable oracle — "the
/// fleet never hard-fails" — find the first generated scenario that
/// violates it, and minimize that scenario into `dir`.
fn shrink_demo(dir: &str, seed: u64) {
    struct NoHardFailures;
    impl Oracle for NoHardFailures {
        fn name(&self) -> &'static str {
            "no-hard-failures"
        }
        fn check(&self, run: &RunArtifacts<'_>) -> Result<(), String> {
            if run.sharded.resilience.hard_failures > 0 {
                Err(format!(
                    "{} hard failures",
                    run.sharded.resilience.hard_failures
                ))
            } else {
                Ok(())
            }
        }
    }
    let oracles: Vec<Box<dyn Oracle>> = vec![Box::new(NoHardFailures)];
    let generator = ScenarioGen::new(seed);
    let victim = (0..64)
        .map(|i| generator.generate(i))
        .find(|s| !run_and_check(s, &oracles).violations.is_empty())
        .expect("the sample space contains hard failures");
    println!(
        "injected oracle \"no-hard-failures\" violated by {} ({} fault events)",
        victim.name,
        match victim.compile() {
            Ok(c) => c.scenario.faults.len(),
            Err(_) => 0,
        }
    );
    let minimized = shrink(&victim, &oracles);
    let events = match &minimized.faults {
        FaultSpec::Events(e) => e.len(),
        FaultSpec::Chaos { .. } => unreachable!("shrinker materializes chaos"),
    };
    std::fs::create_dir_all(dir).expect("create regression dir");
    let path = format!("{dir}/{}.json", minimized.name);
    std::fs::write(&path, minimized.render()).expect("write regression file");
    println!(
        "minimized to {} fault event(s), {} class(es), {} instance(s) → wrote {path}",
        events,
        minimized.classes.len(),
        minimized.n_instances()
    );
    assert!(events <= 5, "shrinker left {events} events");
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.emit_files {
        emit_files(dir);
        return;
    }
    if let Some(dir) = &args.shrink_demo {
        shrink_demo(dir, args.seed);
        return;
    }
    if let Some(count) = args.fuzz {
        run_fuzz(count, args.seed);
        return;
    }
    if let Some(path) = &args.file {
        run_file(path, args.shards);
        return;
    }
    let t0 = Instant::now();
    let kinds = args.only.map_or(ChaosKind::ALL.to_vec(), |kind| vec![kind]);
    let legs: Vec<(ScenarioSpec, FleetScenario)> = kinds
        .into_iter()
        .map(|kind| {
            let spec = chaos_spec(kind, args.smoke, args.seed);
            let scenario = spec.compile().expect("chaos spec compiles").scenario;
            (spec, scenario)
        })
        .collect();
    let base = fault_free(&legs[0].1);
    println!(
        "chaos matrix: {} scenario(s) × {} instances, {:.0} req/s for {} ms \
         (seed {}, {} mode, {} shard(s))",
        legs.len(),
        base.instances.len(),
        base.arrival.mean_rate_rps(),
        (1e3 * base.horizon_s) as u64,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        args.shards,
    );

    let baseline = run_leg(&base, args.shards, "baseline");
    println!(
        "baseline (no faults): SLO {:.2}%  p99 {:.3} ms  {:.3} mJ/req  availability 100.00%",
        100.0 * baseline.slo_attainment,
        1e3 * baseline.latency.p99_s,
        1e3 * baseline.energy_per_request_j,
    );
    println!();
    println!(
        "  {:<22} {:>7} {:>7} {:>8} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "scenario",
        "SLO %",
        "ΔSLO",
        "avail %",
        "p99 ms",
        "f.over",
        "recals",
        "fails",
        "unserved",
        "mJ/req"
    );

    // The committed scenario files are the smoke matrix at seed 7;
    // under that invocation each must still equal its leg's spec.
    let check_files = args.smoke && args.seed == 7;
    let mut records = Vec::new();
    for (spec, scenario) in &legs {
        let name = spec.name.as_str();
        let report = run_leg(scenario, args.shards, name);
        let r = &report.resilience;
        println!(
            "  {:<22} {:>7.2} {:>+7.2} {:>8.2} {:>8.3} {:>7} {:>7} {:>7} {:>9} {:>9.3}",
            name,
            100.0 * report.slo_attainment,
            100.0 * (report.slo_attainment - baseline.slo_attainment),
            100.0 * r.availability,
            1e3 * report.latency.p99_s,
            r.failed_over,
            r.recalibrations,
            r.hard_failures,
            r.unserved,
            1e3 * report.energy_per_request_j,
        );
        if check_files {
            let path = format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let committed = ScenarioSpec::load(&path).expect("committed scenario file");
            assert_eq!(
                &committed, spec,
                "{name}: committed file drifted from the canonical spec (regenerate \
                 with --emit-files scenarios)"
            );
        }
        records.push(record_for(name, &report, &baseline));
    }
    println!();

    write_scenarios(if args.smoke { "smoke" } else { "full" }, &base, records);
    println!(
        "all scenarios deterministic; matrix done in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}
