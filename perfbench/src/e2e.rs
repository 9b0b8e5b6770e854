//! One end-to-end operation: a whole workload run, inputs in, rendered
//! report or ranked frontier out, with its correctness checks.

use crate::inputs::{self, Workload};
use crate::spans::Spans;
use pcnna_dse::prelude::{co_design, evolve, grid_sweep, CodesignRow, ParetoFrontier};
use pcnna_fleet::prelude::{FleetReport, ScenarioSpec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// What one operation measured and produced.
#[derive(Debug)]
pub struct OpOutcome {
    /// End-to-end metric values of this operation.
    pub values: Vec<(&'static str, f64)>,
    /// Digest of the simulated statistics (report or frontier); a change
    /// that only speeds the program up leaves it identical.
    pub digest: u64,
    /// The simulated statistics in one line.
    pub stats: String,
    /// The fleet report, for fleet workloads.
    pub report: Option<FleetReport>,
}

/// The directory the harness writes generated inputs and span files
/// to, created on first use.
///
/// # Errors
///
/// Returns the I/O failure as text.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Renders `spec` to the scenario file `<out>/<stem>-seed<seed>.json`.
///
/// # Errors
///
/// Returns the I/O failure as text.
pub fn write_scenario(stem: &str, seed: u64, spec: &ScenarioSpec) -> Result<PathBuf, String> {
    let path = out_dir()?.join(format!("{stem}-seed{seed}.json"));
    std::fs::write(&path, spec.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// 64-bit FNV-1a.
#[must_use]
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks the fleet books: in total and per class, every offered
/// request was admitted or rejected, and every admitted request ended
/// exactly one way (`admitted = completed + unserved + shed`).
///
/// # Errors
///
/// Names the book that does not balance.
pub fn check_books(report: &FleetReport) -> Result<(), String> {
    pcnna_bench::report::assert_books(report, "fleet report");
    for c in &report.per_class {
        if c.admitted != c.completed + c.unserved + c.shed {
            return Err(format!(
                "class {}: admitted {} != completed {} + unserved {} + shed {}",
                c.name, c.admitted, c.completed, c.unserved, c.shed
            ));
        }
    }
    Ok(())
}

/// Runs one end-to-end operation of `workload`. Generated inputs are
/// written before the clock starts; spans are recorded only when
/// `spans` is enabled.
///
/// # Errors
///
/// Returns a program error or a failed correctness check as text.
pub fn run(
    workload: Workload,
    seed: u64,
    threads: usize,
    spans: &mut Spans,
) -> Result<OpOutcome, String> {
    match workload {
        Workload::ChaosControl | Workload::MegaSharded => {
            let path = write_scenario(workload.name(), seed, &inputs::fleet_spec(workload, seed))?;
            fleet_op(&path, threads, spans)
        }
        Workload::DseExplore => dse_op(seed, threads, spans),
    }
}

fn fleet_op(path: &PathBuf, threads: usize, spans: &mut Spans) -> Result<OpOutcome, String> {
    let err = |e: pcnna_fleet::FleetError| e.to_string();
    let t0 = Instant::now();
    spans.enter("op");
    spans.enter("setup");
    let spec = spans
        .time("fleet.scenario.parse", || ScenarioSpec::load(path))
        .map_err(err)?;
    let compiled = spans
        .time("fleet.scenario.compile", || spec.compile())
        .map_err(err)?;
    let quotes = spans
        .time("fleet.quote_table", || compiled.scenario.quote_table())
        .map_err(err)?;
    spans.exit();
    let setup_s = t0.elapsed().as_secs_f64();

    let scenario = &compiled.scenario;
    let t_run = Instant::now();
    let run = spans.time("fleet.run", || match &compiled.control {
        Some(control) => {
            let mut policy = control.policy.build();
            scenario
                .simulate_controlled(&control.config, policy.as_mut())
                .map(|r| {
                    let control = format!(
                        " windows {} scale_ups {} scale_downs {} throttled {}",
                        r.windows, r.scale_ups, r.scale_downs, r.throttled
                    );
                    (r.report, control)
                })
        }
        None => scenario
            .simulate_sharded(threads, threads)
            .map(|r| (r, String::new())),
    });
    let run_s = t_run.elapsed().as_secs_f64();
    let (report, control) = run.map_err(err)?;
    let rendered = spans.time("fleet.metrics.render", || report.render());
    spans.exit();
    let wall_s = t0.elapsed().as_secs_f64();

    check_books(&report)?;
    // Model evaluations: one service quote per distinct (config, class).
    // The run's requotes are left out: their count follows the seed's
    // fault timeline, which would make this metric vary with the seed.
    let evaluations = quotes.n_rows() * scenario.classes.len();
    let stats = format!(
        "completed {} slo_attainment {:.6} accuracy_attainment {:.6} p50_ms {:.6} p99_ms {:.6} \
         rejected {} unserved {} shed {} requotes {}{control}",
        report.completed,
        report.slo_attainment,
        report.accuracy_attainment,
        report.latency.p50_s * 1e3,
        report.latency.p99_s * 1e3,
        report.rejected,
        report.resilience.unserved,
        report.resilience.shed,
        report.resilience.requotes,
    );
    Ok(OpOutcome {
        values: vec![
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            ("sim_req_per_s", report.completed as f64 / run_s),
            ("dse_evals_per_s", evaluations as f64 / wall_s),
            ("peak_rss_mib", peak_rss_mib()),
        ],
        digest: fnv1a(format!("{rendered}{control}").as_bytes()),
        stats,
        report: Some(report),
    })
}

/// The ranked frontiers and co-design rows as the explorer's output.
fn render_ranking(frontiers: &[(&str, &ParetoFrontier)], rows: &[CodesignRow]) -> String {
    let mut out = String::new();
    for (name, frontier) in frontiers {
        let _ = writeln!(out, "frontier {name}: {} designs", frontier.len());
        for e in frontier.sorted_by_latency() {
            let p = &e.point;
            let _ = writeln!(
                out,
                "  {:016x} latency {:e} energy {:e} area {:e} snr_headroom {:e}",
                p.fingerprint, p.latency_s, p.energy_j, p.area_mm2, p.snr_headroom_db
            );
        }
    }
    for r in rows {
        let _ = writeln!(
            out,
            "fleet {} slo {:e} power {:e} slo_per_watt {:e} p99_ms {:e}",
            r.label, r.slo_attainment, r.mean_power_w, r.slo_per_watt, r.p99_ms
        );
    }
    out
}

fn dse_op(seed: u64, threads: usize, spans: &mut Spans) -> Result<OpOutcome, String> {
    let err = |e: pcnna_dse::DseError| e.to_string();
    let space = inputs::dse_space(seed);
    let evaluators = inputs::dse_evaluators();
    let evolution = inputs::dse_evolution(seed, threads);
    let codesign = inputs::dse_codesign(seed);
    let classes = inputs::dse_codesign_classes();

    let t0 = Instant::now();
    spans.enter("op");
    let candidates = spans.time("dse.setup", || {
        space.validate().map(|()| {
            space
                .grid_choices()
                .into_iter()
                .map(|c| {
                    let cand = space.assemble(c);
                    (cand, cand.fingerprint())
                })
                .collect::<Vec<_>>()
        })
    });
    black_box(&candidates.map_err(err)?);
    let setup_s = t0.elapsed().as_secs_f64();

    let t_search = Instant::now();
    let mut sweeps = Vec::with_capacity(evaluators.len());
    for ev in &evaluators {
        let out = spans
            .time("dse.grid_sweep", || grid_sweep(&space, ev, threads))
            .map_err(err)?;
        sweeps.push(out);
    }
    let evolved = spans
        .time("dse.evolve", || evolve(&space, &evaluators[0], &evolution))
        .map_err(err)?;
    let search_s = t_search.elapsed().as_secs_f64();

    let rows = spans
        .time("dse.co_design", || {
            co_design(&sweeps[0].frontier, &classes, &codesign)
        })
        .map_err(err)?;

    let mut frontiers: Vec<(&str, &ParetoFrontier)> = evaluators
        .iter()
        .zip(&sweeps)
        .map(|(ev, s)| (ev.workload(), &s.frontier))
        .collect();
    frontiers.push(("evolve", &evolved.frontier));
    let rendered = spans.time("dse.render", || render_ranking(&frontiers, &rows));
    spans.exit();
    let wall_s = t0.elapsed().as_secs_f64();

    for (name, frontier) in &frontiers {
        if !frontier.invariant_holds() {
            return Err(format!("frontier {name} fails invariant_holds()"));
        }
    }
    let evaluated: u64 =
        sweeps.iter().map(|s| s.stats.evaluated).sum::<u64>() + evolved.stats.evaluated;
    // Co-design replays the same traffic on every ranked fleet: its
    // expected request count is rate × horizon per fleet.
    let codesign_requests =
        codesign.arrival.mean_rate_rps() * codesign.horizon_s * rows.len() as f64;
    let stats = format!(
        "frontiers {} evaluated {evaluated} evolve_cache_hits {} fleets {} best {} slo_per_watt {:.6}",
        frontiers
            .iter()
            .map(|(n, f)| format!("{n}:{}", f.len()))
            .collect::<Vec<_>>()
            .join(","),
        evolved.stats.cache_hits,
        rows.len(),
        rows.first().map_or("-", |r| r.label.as_str()),
        rows.first().map_or(0.0, |r| r.slo_per_watt),
    );
    Ok(OpOutcome {
        values: vec![
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            ("sim_req_per_s", codesign_requests / wall_s),
            ("dse_evals_per_s", evaluated as f64 / search_s),
            ("peak_rss_mib", peak_rss_mib()),
        ],
        digest: fnv1a(rendered.as_bytes()),
        stats,
        report: None,
    })
}
