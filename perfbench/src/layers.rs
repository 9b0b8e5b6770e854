//! The traced run's per-layer probes.
//!
//! Each probe calls one layer's public API on the workload's generated
//! inputs, inside a span, and turns the timings into the per-layer
//! metrics `BENCHMARK.json` declares. Every workload measures every
//! layer: the fleet layers run on the workload's scenario (for
//! `dse-explore`, the co-design traffic as a scenario file), the
//! explorer layers on its design space (for the fleet workloads, the
//! smoke space evaluated on the networks the fleet serves).

use crate::e2e::{self, OpOutcome};
use crate::inputs::{self, Workload};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use pcnna_core::analytical::AnalyticalModel;
use pcnna_core::feasibility::FeasibilityModel;
use pcnna_core::power::{PowerAssumptions, PowerModel};
use pcnna_core::serving::{service_quote, QuoteRequest};
use pcnna_core::PcnnaConfig;
use pcnna_dse::prelude::{
    co_design, evolve, grid_sweep, Candidate, DesignSpace, EvalCache, Evaluator, ParetoFrontier,
};
use pcnna_fleet::engine::{EventTime, TimingWheel};
use pcnna_fleet::prelude::{
    ClassSampler, ControlConfig, FaultAction, FleetReport, FleetScenario, HealthState, Hold,
    PolicySpec, Profile, ScenarioSpec, TraceConfig,
};
use pcnna_fleet::workload::ArrivalSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the millisecond-scale setup probes.
const SETUP_REPS: usize = 5;
/// Repetitions of each decomposition leg, interleaved.
const LEG_REPS: usize = 3;
/// The decomposition legs run on the workload's fleet cut down to at
/// most this many instances and about this many requests, so the
/// one-cell leg stays within the run length.
const CUT_INSTANCES: usize = 1_000;
const CUT_REQUESTS: f64 = 300_000.0;
/// Cap on the arrivals the generation probe drains, and on the events
/// it keeps for the timing-wheel probe.
const MAX_ARRIVALS: usize = 2_000_000;
const WHEEL_EVENTS: usize = 1 << 20;
/// Timing-wheel probe: events in flight and push+pop pairs per timed
/// batch.
const WHEEL_IN_FLIGHT: usize = 1_024;
const WHEEL_BATCH: usize = 1_024;
/// `service_quote` probe: at least this many timed calls.
const MIN_QUOTE_CALLS: usize = 400;
/// Explorer probes: candidates sampled from the grid, and calls per
/// timed block of the sub-microsecond steps.
const DSE_SAMPLE: usize = 4_096;
const DSE_BLOCK: usize = 64;

/// What one traced round produced.
#[derive(Debug)]
pub struct TraceOutcome {
    /// The traced end-to-end operation.
    pub op: OpOutcome,
    /// Per-layer metric values.
    pub values: Vec<(&'static str, f64)>,
    /// The recorded spans.
    pub spans: Spans,
}

fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = spans.time(name, f);
    (out, t.elapsed().as_secs_f64())
}

fn fleet_err(e: pcnna_fleet::FleetError) -> String {
    e.to_string()
}

fn dse_err(e: pcnna_dse::DseError) -> String {
    e.to_string()
}

/// Runs one traced round: the traced end-to-end operation (cold, the
/// first thing in the process), then every layer probe.
///
/// # Errors
///
/// Returns a program error or failed correctness check as text.
pub fn run(workload: Workload, seed: u64, threads: usize) -> Result<TraceOutcome, String> {
    let mut spans = Spans::new(true);
    let op = e2e::run(workload, seed, threads, &mut spans)?;
    let mut values = Vec::new();
    fleet_layers(workload, seed, threads, &op, &mut spans, &mut values)?;
    dse_layers(workload, seed, threads, &mut spans, &mut values)?;
    Ok(TraceOutcome { op, values, spans })
}

fn fleet_layers(
    workload: Workload,
    seed: u64,
    threads: usize,
    op: &OpOutcome,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let path = e2e::write_scenario(workload.name(), seed, &inputs::fleet_spec(workload, seed))?;
    let (mut parse, mut compile, mut quote_table) = (Vec::new(), Vec::new(), Vec::new());
    let mut compiled = None;
    for _ in 0..SETUP_REPS {
        let (spec, dt) = timed(spans, "fleet.scenario.parse", || ScenarioSpec::load(&path));
        parse.push(dt);
        let (c, dt) = timed(spans, "fleet.scenario.compile", || {
            spec.map_err(fleet_err)?.compile().map_err(fleet_err)
        });
        compile.push(dt);
        let c = c?;
        let (quotes, dt) = timed(spans, "fleet.quote_table", || c.scenario.quote_table());
        quote_table.push(dt);
        black_box(quotes.map_err(fleet_err)?);
        compiled = Some(c);
    }
    let compiled = compiled.expect("SETUP_REPS > 0");
    values.push(("fleet.scenario.parse_ms", median(&parse) * 1e3));
    values.push(("fleet.scenario.compile_ms", median(&compile) * 1e3));
    values.push(("fleet.quote_table_ms", median(&quote_table) * 1e3));
    let scenario = &compiled.scenario;

    quote_probe(scenario, spans, values)?;
    let arrivals = arrival_probe(scenario, spans, values);
    wheel_probe(scenario, &arrivals, spans, values)?;

    // Exact engine counts from the traced engine on the full inputs.
    // Telemetry must not change results: the traced report has to
    // match the untraced end-to-end one.
    let tcfg = TraceConfig::default();
    let (report, profile) = match &compiled.control {
        Some(control) => {
            let mut policy = control.policy.build();
            let (r, telemetry) = spans
                .time("fleet.run_traced", || {
                    scenario.simulate_controlled_traced(&control.config, policy.as_mut(), &tcfg)
                })
                .map_err(fleet_err)?;
            (r.report, telemetry.trace.profile)
        }
        None => {
            let (r, trace) = spans
                .time("fleet.run_traced", || {
                    scenario.simulate_sharded_traced(threads, threads, &tcfg)
                })
                .map_err(fleet_err)?;
            (r, trace.profile)
        }
    };
    if let Some(untraced) = &op.report {
        if *untraced != report {
            return Err("traced run report differs from the untraced run".to_owned());
        }
    }
    e2e::check_books(&report)?;
    per_request_counts(&profile, report.completed, values);

    let mut render = Vec::new();
    for _ in 0..SETUP_REPS {
        let (text, dt) = timed(spans, "fleet.metrics.render", || report.render());
        black_box(text);
        render.push(dt);
    }
    values.push(("fleet.metrics.render_ms", median(&render) * 1e3));

    let cut = cut_down(scenario);
    engine_legs(&cut, threads, spans, values)?;
    let (control_cfg, policy) = match &compiled.control {
        Some(c) => (c.config.clone(), c.policy.clone()),
        None => (
            ControlConfig::default(),
            PolicySpec::from_kind("reactive").expect("reactive is a known policy"),
        ),
    };
    control_legs(&cut, &control_cfg, &policy, spans, values)?;
    telemetry_leg(&cut, threads, spans, values)
}

fn per_request_counts(profile: &Profile, completed: u64, values: &mut Vec<(&'static str, f64)>) {
    let per_req = |n: u64| n as f64 / completed.max(1) as f64;
    values.push((
        "fleet.engine.wheel_ops_per_req",
        per_req(profile.wheel_pushes + profile.wheel_pops),
    ));
    values.push((
        "fleet.engine.dispatch_scans_per_req",
        per_req(profile.dispatch_scans),
    ));
    values.push((
        "fleet.engine.quote_lookups_per_req",
        per_req(profile.quote_lookups),
    ));
}

/// `service_quote` per call, once the proxy ladder is warm, over every
/// (distinct config, class, health) request the fault timeline
/// produces: nominal health plus each `Degrade` snapshot.
fn quote_probe(
    scenario: &FleetScenario,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let mut configs: Vec<PcnnaConfig> = Vec::new();
    for c in &scenario.instances {
        if !configs.contains(c) {
            configs.push(*c);
        }
    }
    let mut healths = vec![HealthState::nominal()];
    for ev in scenario.faults.events() {
        if let FaultAction::Degrade(h) = ev.action {
            if !healths.contains(&h) {
                healths.push(h);
            }
        }
    }
    let layers: Vec<_> = scenario.classes.iter().map(|c| c.layer_refs()).collect();
    let mut samples = Vec::new();
    spans.enter("core.service_quote");
    while samples.len() < MIN_QUOTE_CALLS {
        for config in &configs {
            for class_layers in &layers {
                for health in &healths {
                    let request = QuoteRequest::new(config, &scenario.assumptions, class_layers)
                        .with_health(*health)
                        .with_limits(scenario.limits);
                    let t = Instant::now();
                    let quote = service_quote(&request);
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                    black_box(quote.map_err(|e| e.to_string())?);
                }
            }
        }
    }
    spans.exit();
    values.push(("core.service_quote_us.p50", median(&samples)));
    values.push(("core.service_quote_us.p99", percentile(&samples, 99.0)));
    values.push(("core.service_quote_us.n", samples.len() as f64));
    Ok(())
}

/// Drains the workload's arrival process over its horizon with
/// `ArrivalSampler` and `ClassSampler` alone; returns the drained
/// (time, class) stream for the wheel probe.
fn arrival_probe(
    scenario: &FleetScenario,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Vec<(f64, usize)> {
    let mut stream = Vec::with_capacity(WHEEL_EVENTS);
    let t = Instant::now();
    spans.enter("fleet.workload.arrivals");
    let mut arrivals = ArrivalSampler::new(scenario.arrival, scenario.seed);
    let classes = ClassSampler::new(&scenario.classes);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut n = 0usize;
    loop {
        let at = arrivals.next_arrival_s();
        if at > scenario.horizon_s || n >= MAX_ARRIVALS {
            break;
        }
        let class = classes.sample(&mut rng);
        if stream.len() < WHEEL_EVENTS {
            stream.push((at, class));
        }
        n += 1;
    }
    spans.exit();
    let dt = t.elapsed().as_secs_f64();
    values.push(("fleet.workload.arrivals_per_s", n as f64 / dt));
    stream
}

/// One push plus one pop on `TimingWheel`, over the workload's event
/// times: a completion is popped, and its instance's next completion is
/// pushed at `max(now, next arrival) + per-frame service` — the
/// monotone stream the engine feeds the wheel. Arrival `k` is served at
/// the per-frame quote of instance `k mod n`, priced before the clock
/// starts.
fn wheel_probe(
    scenario: &FleetScenario,
    arrivals: &[(f64, usize)],
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let quotes = scenario.quote_table().map_err(fleet_err)?;
    let n = scenario.instances.len();
    let stream: Vec<(f64, f64)> = arrivals
        .iter()
        .enumerate()
        .map(|(k, &(at, class))| (at, quotes.get(k % n, class).per_frame.as_secs_f64()))
        .collect();
    let event = |t: f64| EventTime::try_new(t).ok_or_else(|| format!("bad event time {t}"));
    let in_flight = WHEEL_IN_FLIGHT.min(n).min(stream.len());
    let mut wheel = TimingWheel::new();
    for (i, &(at, service)) in stream[..in_flight].iter().enumerate() {
        wheel.push(event(at + service)?, i as u32, 0);
    }
    let mut samples = Vec::new();
    spans.enter("fleet.engine.wheel");
    for batch in stream[in_flight..].chunks_exact(WHEEL_BATCH) {
        let t = Instant::now();
        for &(at, service) in batch {
            let done = wheel.pop().expect("wheel holds the in-flight events");
            wheel.push(event(at.max(done.at.get()) + service)?, done.instance, 0);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / WHEEL_BATCH as f64);
    }
    spans.exit();
    if samples.is_empty() {
        return Err("too few arrivals for the timing-wheel probe".to_owned());
    }
    values.push(("fleet.engine.wheel_ns.p50", median(&samples)));
    values.push(("fleet.engine.wheel_ns.p99", percentile(&samples, 99.0)));
    values.push(("fleet.engine.wheel_ns.n", samples.len() as f64));
    Ok(())
}

/// The workload's fleet cut down for the decomposition legs: at most
/// [`CUT_INSTANCES`] instances (fault events of dropped instances go
/// with them) and a horizon of about [`CUT_REQUESTS`] requests.
fn cut_down(scenario: &FleetScenario) -> FleetScenario {
    let n = scenario.instances.len().min(CUT_INSTANCES);
    let horizon_s = scenario
        .horizon_s
        .min(CUT_REQUESTS / scenario.arrival.mean_rate_rps());
    FleetScenario {
        instances: scenario.instances[..n].to_vec(),
        faults: scenario.faults.slice_instances(0..n),
        horizon_s,
        ..scenario.clone()
    }
}

fn time_leg(
    spans: &mut Spans,
    name: &'static str,
    f: impl FnOnce() -> pcnna_fleet::Result<FleetReport>,
) -> Result<(FleetReport, f64), String> {
    let (report, dt) = timed(spans, name, f);
    Ok((report.map_err(fleet_err)?, dt))
}

/// One cell vs the partition on one worker vs the partition on N
/// workers, plus the driver's own cost on a single-class variant.
fn engine_legs(
    cut: &FleetScenario,
    threads: usize,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let single = FleetScenario {
        classes: vec![pcnna_fleet::prelude::NetworkClass {
            weight: 1.0,
            ..cut.classes[0].clone()
        }],
        ..cut.clone()
    };
    let (mut one, mut w1, mut wn, mut s_one, mut s_w1) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..LEG_REPS {
        let (_, dt) = time_leg(spans, "fleet.engine.one_cell", || cut.simulate())?;
        one.push(dt);
        let (r1, dt) = time_leg(spans, "fleet.engine.cells_1w", || {
            cut.simulate_sharded(1, 1)
        })?;
        w1.push(dt);
        let (rn, dt) = time_leg(spans, "fleet.engine.cells_nw", || {
            cut.simulate_sharded(threads, threads)
        })?;
        wn.push(dt);
        if r1 != rn {
            return Err(format!(
                "sharded report differs between 1 and {threads} workers"
            ));
        }
        let (_, dt) = time_leg(spans, "fleet.engine.single_class", || single.simulate())?;
        s_one.push(dt);
        let (_, dt) = time_leg(spans, "fleet.engine.single_class_1w", || {
            single.simulate_sharded(1, 1)
        })?;
        s_w1.push(dt);
    }
    let (one, w1, wn) = (median(&one), median(&w1), median(&wn));
    values.push(("fleet.engine.one_cell_s", one));
    values.push(("fleet.engine.cells_1w_s", w1));
    values.push(("fleet.engine.cells_nw_s", wn));
    values.push(("fleet.engine.partition_speedup", one / w1));
    values.push(("fleet.engine.thread_speedup", w1 / wn));
    values.push((
        "fleet.engine.driver_overhead",
        median(&s_w1) / median(&s_one),
    ));
    Ok(())
}

/// The controlled driver under `Hold` (which must reproduce
/// `simulate()` exactly) and under the workload's policy.
fn control_legs(
    cut: &FleetScenario,
    cfg: &ControlConfig,
    policy: &PolicySpec,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let (mut plain, mut hold, mut active) = (Vec::new(), Vec::new(), Vec::new());
    let mut actions = 0;
    for _ in 0..LEG_REPS {
        let (reference, dt) = time_leg(spans, "fleet.control.plain", || cut.simulate())?;
        plain.push(dt);
        let (held, dt) = timed(spans, "fleet.control.hold", || {
            cut.simulate_controlled(cfg, &mut Hold)
        });
        hold.push(dt);
        if held.map_err(fleet_err)?.report != reference {
            return Err("simulate_controlled(Hold) differs from simulate()".to_owned());
        }
        let mut p = policy.build();
        let (run, dt) = timed(spans, "fleet.control.policy", || {
            cut.simulate_controlled(cfg, p.as_mut())
        });
        active.push(dt);
        let run = run.map_err(fleet_err)?;
        e2e::check_books(&run.report)?;
        actions = run.scale_ups + run.scale_downs;
    }
    values.push((
        "fleet.control.hold_overhead",
        median(&hold) / median(&plain),
    ));
    values.push((
        "fleet.control.policy_ms",
        (median(&active) - median(&hold)) * 1e3,
    ));
    values.push(("fleet.control.actions", actions as f64));
    Ok(())
}

/// Traced over untraced sharded engine on the same inputs.
fn telemetry_leg(
    cut: &FleetScenario,
    threads: usize,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let tcfg = TraceConfig::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..LEG_REPS {
        let (reference, dt) = time_leg(spans, "fleet.telemetry.untraced", || {
            cut.simulate_sharded(threads, threads)
        })?;
        plain.push(dt);
        let (run, dt) = timed(spans, "fleet.telemetry.traced", || {
            cut.simulate_sharded_traced(threads, threads, &tcfg)
        });
        traced.push(dt);
        if run.map_err(fleet_err)?.0 != reference {
            return Err("traced sharded report differs from the untraced one".to_owned());
        }
    }
    values.push((
        "fleet.telemetry.trace_overhead",
        median(&traced) / median(&plain),
    ));
    Ok(())
}

/// Median per-call time, microseconds, of `f` over `items` in blocks of
/// [`DSE_BLOCK`] calls.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items
        .chunks(DSE_BLOCK)
        .map(|block| {
            let t = Instant::now();
            for item in block {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / block.len() as f64
        })
        .collect();
    median(&samples)
}

fn dse_layers(
    workload: Workload,
    seed: u64,
    threads: usize,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let (space, evaluators) = inputs::probe_space(workload, seed);
    let ev = &evaluators[0];
    let choices = space.grid_choices();
    let stride = (choices.len() / DSE_SAMPLE).max(1);
    let sample: Vec<_> = choices.iter().step_by(stride).copied().collect();

    spans.enter("dse.assemble");
    let assemble = per_call_us(&sample, |&c| {
        let cand = space.assemble(c);
        black_box(cand.fingerprint());
    });
    spans.exit();
    values.push(("dse.assemble_us", assemble));

    let cands: Vec<(Candidate, u64)> = sample
        .iter()
        .map(|&c| {
            let cand = space.assemble(c);
            (cand, cand.fingerprint())
        })
        .collect();
    spans.enter("dse.evaluate");
    let evaluate = per_call_us(&cands, |(cand, fp)| {
        black_box(ev.evaluate_with_fingerprint(cand, *fp));
    });
    spans.exit();
    values.push(("dse.evaluate_us", evaluate));

    let verdicts: Vec<_> = cands
        .iter()
        .map(|(cand, fp)| (*cand, *fp, ev.evaluate_with_fingerprint(cand, *fp)))
        .collect();
    let mut frontier = ParetoFrontier::new();
    spans.enter("dse.frontier_insert");
    let insert = per_call_us(&verdicts, |(cand, _, verdict)| {
        if let Some(point) = verdict {
            black_box(frontier.insert(*cand, *point));
        }
    });
    spans.exit();
    values.push(("dse.frontier_insert_us", insert));
    if !frontier.invariant_holds() {
        return Err("probe frontier fails invariant_holds()".to_owned());
    }
    let mut cache = EvalCache::new();
    spans.enter("dse.cache_insert");
    let cache_insert = per_call_us(&verdicts, |(_, fp, verdict)| cache.insert(*fp, *verdict));
    spans.exit();
    values.push(("dse.cache_insert_us", cache_insert));

    core_layer_probes(&cands, ev, spans, values);
    search_probes(workload, seed, threads, &space, &evaluators, spans, values)
}

/// Per-conv-layer cost of the three model stages `evaluate` calls.
fn core_layer_probes(
    cands: &[(Candidate, u64)],
    ev: &Evaluator,
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) {
    let layers = ev.layer_refs();
    let models: Vec<_> = cands
        .iter()
        .filter_map(|(cand, _)| {
            let c = cand.harmonized();
            Some((
                AnalyticalModel::new(c.config).ok()?,
                FeasibilityModel::new(c.config, c.budget).ok()?,
                PowerModel::new(c.config, PowerAssumptions::default()).ok()?,
            ))
        })
        .collect();
    let per_layer = |f: &mut dyn FnMut(&(AnalyticalModel, FeasibilityModel, PowerModel))| {
        let samples: Vec<f64> = models
            .iter()
            .map(|m| {
                let t = Instant::now();
                f(m);
                t.elapsed().as_secs_f64() * 1e6 / layers.len() as f64
            })
            .collect();
        median(&samples)
    };
    spans.enter("core.analytical");
    let analytical = per_layer(&mut |(a, _, _)| {
        for (_, g) in &layers {
            black_box(a.layer_full_system_time(g).ok());
        }
    });
    spans.exit();
    spans.enter("core.feasibility");
    let feasibility = per_layer(&mut |(_, f, _)| {
        for (_, g) in &layers {
            black_box(f.layer_spectrum(g));
        }
    });
    spans.exit();
    spans.enter("core.power");
    let power = per_layer(&mut |(_, _, p)| {
        for (_, g) in &layers {
            black_box(p.layer_energy_j(g, 1e-3));
        }
    });
    spans.exit();
    values.push(("core.analytical.layer_us", analytical));
    values.push(("core.feasibility.layer_us", feasibility));
    values.push(("core.power.layer_us", power));
}

fn search_probes(
    workload: Workload,
    seed: u64,
    threads: usize,
    space: &DesignSpace,
    evaluators: &[Evaluator],
    spans: &mut Spans,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let ev = &evaluators[0];
    let (one, dt1) = timed(spans, "dse.grid_1w", || grid_sweep(space, ev, 1));
    let (many, dtn) = timed(spans, "dse.grid_nw", || grid_sweep(space, ev, threads));
    let (one, many) = (one.map_err(dse_err)?, many.map_err(dse_err)?);
    if one.frontier != many.frontier || !one.frontier.invariant_holds() {
        return Err(format!(
            "grid sweep frontier differs between 1 and {threads} threads"
        ));
    }
    values.push(("dse.grid_1w_s", dt1));
    values.push(("dse.grid_nw_s", dtn));
    values.push(("dse.thread_speedup", dt1 / dtn));

    let evolved = spans
        .time("dse.evolve", || {
            evolve(space, ev, &inputs::dse_evolution(seed, threads))
        })
        .map_err(dse_err)?;
    let s = evolved.stats;
    values.push((
        "dse.cache_hit_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.evaluated).max(1) as f64,
    ));

    let classes = match workload {
        Workload::DseExplore => inputs::dse_codesign_classes(),
        Workload::ChaosControl | Workload::MegaSharded => {
            inputs::fleet_spec(workload, seed)
                .compile()
                .map_err(fleet_err)?
                .scenario
                .classes
        }
    };
    let (rows, dt) = timed(spans, "dse.co_design", || {
        co_design(&one.frontier, &classes, &inputs::dse_codesign(seed))
    });
    black_box(rows.map_err(dse_err)?);
    values.push(("dse.codesign_s", dt));
    Ok(())
}
