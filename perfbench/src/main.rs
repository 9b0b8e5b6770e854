//! `perfbench`: the repository benchmark (see `README.md` beside this
//! package).
//!
//! ```text
//! perfbench --workload <chaos-control|mega-sharded|dse-explore>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The harness repeats operations for `--seconds`, each one a fresh
//! process (this binary with `--child`), so every run pays the same cold
//! costs a user pays. With `--trace 0` an operation is one end-to-end
//! workload run and the last stdout line carries the end-to-end metrics;
//! with `--trace 1` each round adds a traced run with the per-layer
//! probes and a cold proxy-ladder probe, and the last line carries the
//! per-layer metrics. Both modes start with one warm-up operation that
//! is checked but not measured.

use pcnna_core::serving::{service_quote, QuoteRequest};
use pcnna_fleet::scenario::json::{self, Json};
use perfbench::inputs::{self, Workload};
use perfbench::metrics::{self, MetricDef};
use perfbench::{e2e, layers, spans::Spans, stats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <chaos-control|mega-sharded|dse-explore> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Prefix of the one result line a child operation prints.
const RESULT: &str = "RESULT ";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                });
            }
            "--child" => child = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Worker threads for the parallel stages: one per available core.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.child {
        Some(kind) => child(kind, &args),
        None => parent(&args),
    };
    std::process::exit(code);
}

fn values_json(values: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|&(name, v)| (metrics::def(name).name.to_owned(), json::num(v)))
            .collect(),
    )
}

fn op_json(op: &e2e::OpOutcome, layer_values: &[(&'static str, f64)]) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("values".into(), values_json(&op.values)),
        ("layers".into(), values_json(layer_values)),
        ("digest".into(), json::str(format!("{:016x}", op.digest))),
        ("stats".into(), json::str(op.stats.clone())),
    ])
}

/// The first `service_quote` of a process, which trains the proxy
/// accuracy ladder, seconds.
fn ladder_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let compiled = inputs::fleet_spec(workload, seed)
        .compile()
        .map_err(|e| e.to_string())?;
    let scenario = &compiled.scenario;
    let layers = scenario.classes[0].layer_refs();
    let request = QuoteRequest::new(&scenario.instances[0], &scenario.assumptions, &layers);
    let t = Instant::now();
    let quote = service_quote(&request);
    let dt = t.elapsed().as_secs_f64();
    black_box(quote.map_err(|e| e.to_string())?);
    Ok(dt)
}

/// One operation in this process; prints its result line.
fn child(kind: &str, args: &Args) -> i32 {
    let (w, seed, threads) = (args.workload, args.seed, threads());
    let result = match kind {
        "e2e" => e2e::run(w, seed, threads, &mut Spans::new(false)).map(|op| op_json(&op, &[])),
        "trace" => layers::run(w, seed, threads).and_then(|t| {
            let path = e2e::out_dir()?.join(format!("spans-{}-seed{seed}.json", w.name()));
            std::fs::write(&path, t.spans.render_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(op_json(&t.op, &t.values))
        }),
        "ladder" => ladder_probe(w, seed).map(|dt| {
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("layers".into(), values_json(&[("cnn.proxy_ladder_s", dt)])),
            ])
        }),
        _ => Err(format!("unknown child kind {kind:?}")),
    };
    match result {
        Ok(j) => {
            println!("{RESULT}{}", j.render());
            0
        }
        Err(e) => {
            eprintln!("perfbench {kind} {} seed {seed}: {e}", w.name());
            let j = Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), json::str(e)),
            ]);
            println!("{RESULT}{}", j.render());
            1
        }
    }
}

/// A child's parsed result.
struct ChildResult {
    values: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    digest: String,
    stats: String,
}

fn number_map(j: Option<&Json>) -> BTreeMap<String, f64> {
    j.and_then(Json::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Runs one child operation to completion and parses its result.
fn spawn_child(kind: &str, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", kind, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {kind}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find_map(|l| l.strip_prefix(RESULT));
    let parsed = line.and_then(|l| Json::parse(l).ok());
    match parsed {
        Some(j) if out.status.success() && j.get("ok").and_then(Json::as_bool) == Some(true) => {
            Ok(ChildResult {
                values: number_map(j.get("values")),
                layers: number_map(j.get("layers")),
                digest: j
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                stats: j
                    .get("stats")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            })
        }
        Some(j) => Err(format!(
            "{kind} failed ({}): {}",
            out.status,
            j.get("error")
                .and_then(Json::as_str)
                .unwrap_or("no reason given")
        )),
        None => Err(format!("{kind} failed ({}) without a result", out.status)),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// The commit of the repository this benchmark sits in, when the
/// checkout is a git work tree rooted there.
fn git_commit() -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let root_s = root.to_str()?;
    let top = command_line("git", &["-C", root_s, "rev-parse", "--show-toplevel"])?;
    if std::fs::canonicalize(&top).ok()? != std::fs::canonicalize(root).ok()? {
        return None;
    }
    command_line("git", &["-C", root_s, "rev-parse", "HEAD"])
}

fn opt_str(v: Option<String>) -> Json {
    v.map_or(Json::Null, json::str)
}

/// The machine and mode this run was taken under.
fn record(args: &Args, threads: usize) -> Json {
    let nproc = command_line("nproc", &[]).and_then(|s| s.parse::<u64>().ok());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    Json::Obj(vec![(
        "record".into(),
        Json::Obj(vec![
            ("workload".into(), json::str(args.workload.name())),
            ("seed".into(), json::int(args.seed)),
            ("traced".into(), Json::Bool(args.trace)),
            ("seconds".into(), json::int(args.seconds)),
            ("available_parallelism".into(), json::uint(threads)),
            ("nproc".into(), nproc.map_or(Json::Null, json::int)),
            ("rustc".into(), opt_str(command_line(&rustc, &["-V"]))),
            ("git_commit".into(), opt_str(git_commit())),
        ]),
    )])
}

/// Samples of every metric of one mode, collected over the run.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, defs: &[MetricDef], from: &BTreeMap<String, f64>) {
        for d in defs {
            if let Some(&v) = from.get(d.name) {
                self.0.entry(d.name).or_default().push(v);
            }
        }
    }

    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

fn parent(args: &Args) -> i32 {
    let threads = threads();
    println!("{}", record(args, threads).render());
    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<(String, String)> = None;
    let mut samples = Samples::default();
    // Every operation of a run has the same inputs, so every one must
    // produce the same simulated statistics.
    let mut accept = |r: &ChildResult, failed: &mut u64| -> bool {
        let (digest, stats) = reference.get_or_insert_with(|| (r.digest.clone(), r.stats.clone()));
        if *digest == r.digest {
            true
        } else {
            eprintln!(
                "digest {} differs from {digest}: {} vs {stats}",
                r.digest, r.stats
            );
            *failed += 1;
            false
        }
    };
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    // A warm-up operation before the clock starts fills the page cache
    // with the binary; it is checked but not measured.
    attempted += 1;
    match spawn_child("e2e", args) {
        Ok(r) => {
            accept(&r, &mut failed);
        }
        Err(e) => {
            eprintln!("{e}");
            failed += 1;
        }
    }
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        if args.trace {
            attempted += 1;
            let ladder = spawn_child("ladder", args);
            let mut kinds = ["e2e", "trace"];
            if round % 2 == 1 {
                kinds.reverse();
            }
            let (mut plain, mut traced) = (None, None);
            for kind in kinds {
                attempted += 1;
                match spawn_child(kind, args) {
                    Ok(r) if accept(&r, &mut failed) => {
                        let wall = r.values.get("wall_s").copied();
                        if kind == "trace" {
                            traced = wall;
                            samples.add(defs, &r.layers);
                        } else {
                            plain = wall;
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("{e}");
                        failed += 1;
                    }
                }
            }
            match ladder {
                Ok(r) => samples.add(defs, &r.layers),
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                }
            }
            if let (Some(traced), Some(plain)) = (traced, plain) {
                samples.push("bench.trace_overhead", traced / plain);
            }
        } else {
            attempted += 1;
            match spawn_child("e2e", args) {
                Ok(r) if accept(&r, &mut failed) => samples.add(defs, &r.values),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                }
            }
        }
        round += 1;
        if start.elapsed() >= budget {
            break;
        }
    }

    let mut spread = Vec::new();
    let mut result = Vec::new();
    for d in defs {
        let Some(values) = samples.0.get(d.name) else {
            eprintln!("perfbench: no successful sample of {}", d.name);
            return 1;
        };
        let s = stats::summary(values);
        spread.push((
            d.name.to_owned(),
            Json::Obj(vec![
                ("median".into(), json::num(s.median)),
                ("min".into(), json::num(s.min)),
                ("q1".into(), json::num(s.q1)),
                ("q3".into(), json::num(s.q3)),
                ("max".into(), json::num(s.max)),
                ("n".into(), json::uint(s.n)),
                ("unit".into(), json::str(d.unit)),
            ]),
        ));
        result.push((
            d.name.to_owned(),
            Json::Obj(vec![
                ("value".into(), json::num(s.median)),
                ("unit".into(), json::str(d.unit)),
            ]),
        ));
    }
    if let Some((digest, stats)) = &reference {
        let simulated = Json::Obj(vec![
            ("digest".into(), json::str(digest.clone())),
            ("stats".into(), json::str(stats.clone())),
        ]);
        println!(
            "{}",
            Json::Obj(vec![("simulated".into(), simulated)]).render()
        );
    }
    println!(
        "{}",
        Json::Obj(vec![("spread".into(), Json::Obj(spread))]).render()
    );
    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), json::int(attempted)),
        ("failed".into(), json::int(failed)),
        ("metrics".into(), Json::Obj(result)),
    ]);
    println!("{}", last.render());
    0
}
