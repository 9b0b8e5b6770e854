//! Sharding one simulation across cores — deterministically.
//!
//! ## The partition
//!
//! [`ShardPlan`] splits a scenario into up to [`ShardPlan::MAX_CELLS`]
//! **cells**: workload classes are dealt round-robin over the cells, and
//! each cell receives a contiguous slice of the instance list sized to
//! its share of the **service demand** — traffic weight × mean
//! per-frame quote, so a class of few-but-heavy requests gets the
//! hardware its seconds actually need, not its request count
//! (largest-remainder apportionment, every cell at least one
//! instance) — plus a traffic-weighted slice of the admission bound
//! (queue slots hold requests, so request share is the right key
//! there) and the cell's slice of the fault timeline. A cell is a complete
//! sub-simulation — its own queues, scheduler state, health state,
//! in-flight arena, latency histograms — and, crucially, the plan is a
//! **pure function of the scenario**: it never looks at the shard or
//! thread count. That is the root of the determinism contract:
//!
//! > same seed ⇒ bit-identical [`FleetReport`], for every
//! > `(shards, threads)` combination.
//!
//! Shards and threads only decide *who executes* a cell; *what* a cell
//! computes, and the canonical order its numbers are merged in (the
//! engine's private `merge` module), never change.
//!
//! ## The arrival stream
//!
//! One arrival generator replays the scenario's arrival process and class
//! mix exactly as the whole-fleet engine would (same sampler, same RNG
//! streams, same ids), and each request is routed to the cell owning
//! its class. The generated stream is therefore identical at any shard
//! count — a cell sees precisely the sub-stream of its classes.
//!
//! ## One driver
//!
//! Every run goes through one windowed driver: `simulate()` (the
//! one-cell whole-fleet plan), the sharded runs, seed replicas and
//! closed-loop control. The driver steps the generator over window
//! edges and buffers each arrival for the cell owning its class. A
//! cell's buffer is flushed when it holds `ARRIVAL_CHUNK` requests
//! and at every window edge. With one worker the calling thread owns
//! every cell and delivers a flush inline. With more, cell `i` lives
//! on worker `i % workers`, and flushes travel that worker's bounded
//! channel, so the generator runs at most a few batches ahead of the
//! slowest worker. At each edge the driver calls a boundary hook. The
//! open-loop hook does nothing there; closed-loop control
//! ([`crate::control`]) is the hook that observes and acts, on the
//! whole-fleet cell with one worker.
//!
//! Open-loop runs derive the window from the fastest quote in the
//! fleet (the minimum per-frame service time — the lookahead floor:
//! nothing observable happens on a finer scale), with a coarse floor
//! of 1/64 horizon so short runs still pipeline. Because the partition
//! leaves no cross-cell events, any window length yields the same
//! result — the window's job is to bound how far the generator may run
//! ahead of the slowest worker and to keep generation overlapped with
//! simulation. Cross-shard causality is enforced by construction:
//! failover and affinity routing both happen inside a cell, which owns
//! every instance its classes may touch.
//!
//! ## What sharding changes — honestly
//!
//! The partitioned fleet is a *different serving system* from the
//! whole-fleet plan: a class is placed only within its cell's
//! instances (placement loses the other cells' hardware), and admission
//! bounds are per-cell slices of the global bound. What every other
//! shard/thread count must reproduce bit-for-bit is therefore the same
//! plan run on one worker — not the whole-fleet `simulate()`. For a
//! scenario with one class (or one instance) the plan degenerates to a
//! single cell and `simulate_sharded` coincides with `simulate()`
//! exactly.

use super::core::{CellEngine, CellOutcome};
use super::merge;
use super::{FleetScenario, QuoteTable};
use crate::metrics::FleetReport;
use crate::telemetry::{FleetTrace, NullSink, ProfileOp, TraceConfig, TraceSink, TracingSink};
use crate::workload::{ArrivalSampler, ClassSampler, Request};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::mpsc;

/// One cell of the partition: the classes it owns, its contiguous
/// instance slice, and its slice of the admission bound.
#[derive(Debug, Clone)]
pub(crate) struct CellSpec {
    /// Global class indices owned by this cell.
    pub classes: Vec<usize>,
    /// Global instance range owned by this cell.
    pub instances: Range<usize>,
    /// This cell's admission bound (its slice of `queue_capacity`).
    pub queue_capacity: usize,
}

/// The deterministic partition of a scenario into shard cells (module
/// docs describe the scheme and the determinism contract).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub(crate) cells: Vec<CellSpec>,
    pub(crate) class_to_cell: Vec<usize>,
}

impl ShardPlan {
    /// Upper bound on the number of cells a plan creates. The actual
    /// count is `min(classes, instances, MAX_CELLS)` — a cell must own
    /// at least one class and one instance to be a simulation at all.
    pub const MAX_CELLS: usize = 1024;

    /// Builds the plan for `scenario`, using `quotes` (when available)
    /// to size instance slices by service demand rather than raw
    /// request share. Pure function of the scenario — deliberately
    /// blind to shard and thread counts.
    #[must_use]
    pub fn new(scenario: &FleetScenario, quotes: Option<&QuoteTable>) -> ShardPlan {
        let n_c = scenario.classes.len();
        let n_i = scenario.instances.len();
        if n_c == 0 || n_i == 0 {
            // Degenerate (invalid) scenarios still get a well-formed
            // single-cell plan; validation rejects them before any run.
            return ShardPlan::whole_fleet(scenario);
        }
        let l = n_c.min(n_i).min(Self::MAX_CELLS);
        let mut cell_classes: Vec<Vec<usize>> = vec![Vec::new(); l];
        let mut class_to_cell = vec![0usize; n_c];
        for c in 0..n_c {
            cell_classes[c % l].push(c);
            class_to_cell[c] = c % l;
        }
        // A class's expected service demand is its traffic weight times
        // its mean per-frame quote: instance-seconds per offered
        // request, which is what hardware shares must match. Without a
        // quote table (or with a degenerate one) the demand degrades to
        // the plain traffic weight.
        let demand = |c: usize| -> f64 {
            let w = scenario.classes[c].weight;
            let Some(q) = quotes else { return w };
            let mean_frame = (0..n_i)
                .map(|i| q.get(i, c).per_frame.as_secs_f64())
                .sum::<f64>()
                / n_i as f64;
            if mean_frame.is_finite() && mean_frame > 0.0 {
                w * mean_frame
            } else {
                w
            }
        };
        let demand_shares: Vec<f64> = cell_classes
            .iter()
            .map(|cs| cs.iter().map(|&c| demand(c)).sum())
            .collect();
        // Traffic-weight share per cell drives the admission-bound
        // split (queue slots hold requests, not seconds).
        let shares: Vec<f64> = cell_classes
            .iter()
            .map(|cs| cs.iter().map(|&c| scenario.classes[c].weight).sum())
            .collect();
        let mut counts = apportion(n_i, &demand_shares);
        // Every cell serves traffic, so every cell needs hardware: move
        // instances from the largest allocations to any zero-sized ones
        // (deterministic donor choice: largest count, lowest index).
        for i in 0..l {
            while counts[i] == 0 {
                let donor = (0..l)
                    .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(b.cmp(&a)))
                    .expect("plan has at least one cell");
                debug_assert!(counts[donor] > 1, "l <= n_i guarantees a donor");
                counts[donor] -= 1;
                counts[i] += 1;
            }
        }
        // Admission bound: same apportionment, with a floor of 1 so no
        // cell rejects everything. An effectively unbounded queue stays
        // unbounded per cell.
        let caps: Vec<usize> = if scenario.queue_capacity >= usize::MAX / 2 {
            vec![scenario.queue_capacity; l]
        } else {
            apportion(scenario.queue_capacity, &shares)
                .into_iter()
                .map(|c| c.max(1))
                .collect()
        };
        let mut start = 0usize;
        let cells = cell_classes
            .into_iter()
            .zip(counts)
            .zip(caps)
            .map(|((classes, count), queue_capacity)| {
                let spec = CellSpec {
                    classes,
                    instances: start..start + count,
                    queue_capacity,
                };
                start += count;
                spec
            })
            .collect();
        ShardPlan {
            cells,
            class_to_cell,
        }
    }

    /// The one-cell plan: every class and instance in one cell, with
    /// the global admission bound. This is what `simulate()` and
    /// closed-loop control run.
    pub(crate) fn whole_fleet(scenario: &FleetScenario) -> ShardPlan {
        ShardPlan {
            cells: vec![CellSpec {
                classes: (0..scenario.classes.len()).collect(),
                instances: 0..scenario.instances.len(),
                queue_capacity: scenario.queue_capacity,
            }],
            class_to_cell: vec![0; scenario.classes.len()],
        }
    }

    /// Number of cells in the plan.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Global class indices owned by `cell`.
    #[must_use]
    pub fn cell_classes(&self, cell: usize) -> &[usize] {
        &self.cells[cell].classes
    }

    /// Global instance range owned by `cell`.
    #[must_use]
    pub fn cell_instances(&self, cell: usize) -> Range<usize> {
        self.cells[cell].instances.clone()
    }

    /// The cell owning `class`.
    #[must_use]
    pub fn cell_of_class(&self, class: usize) -> usize {
        self.class_to_cell[class]
    }
}

/// Largest-remainder apportionment of `total` items over `shares`
/// (deterministic: remainder ties resolve to the lower index).
fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    let sum: f64 = shares.iter().sum();
    let quota: Vec<f64> = shares
        .iter()
        .map(|&s| total as f64 * s / sum.max(f64::MIN_POSITIVE))
        .collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quota[a] - counts[a] as f64;
        let rb = quota[b] - counts[b] as f64;
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut rem = total.saturating_sub(assigned);
    let mut k = 0usize;
    while rem > 0 {
        counts[order[k % order.len()]] += 1;
        k += 1;
        rem -= 1;
    }
    counts
}

/// Replays the scenario's arrival stream — the exact sampler and RNG
/// streams the whole-fleet engine consumes, so the stream (times,
/// classes, ids, deadlines) is identical however many shards consume it.
pub(crate) struct ArrivalGen {
    sampler: ArrivalSampler,
    class_rng: StdRng,
    mix: ClassSampler,
    slo: Vec<f64>,
    horizon_s: f64,
    next_id: u64,
    pending: Option<Request>,
    done: bool,
}

impl ArrivalGen {
    pub(crate) fn new(scenario: &FleetScenario, seed: u64) -> ArrivalGen {
        ArrivalGen {
            sampler: ArrivalSampler::new(scenario.arrival, seed),
            class_rng: StdRng::seed_from_u64(seed ^ 0xC1A5_55E5),
            mix: ClassSampler::new(&scenario.classes),
            slo: scenario.classes.iter().map(|c| c.slo_s).collect(),
            horizon_s: scenario.horizon_s,
            next_id: 0,
            pending: None,
            done: false,
        }
    }

    /// The next request, if any arrives before the horizon. Fused: once
    /// the horizon is passed the sampler is never consulted again.
    pub(crate) fn next(&mut self) -> Option<Request> {
        if let Some(req) = self.pending.take() {
            return Some(req);
        }
        if self.done {
            return None;
        }
        let t = self.sampler.next_arrival_s();
        if !(t < self.horizon_s) {
            self.done = true;
            return None;
        }
        let class = self.mix.sample(&mut self.class_rng);
        let req = Request {
            id: self.next_id,
            class,
            arrival_s: t,
            deadline_s: t + self.slo[class],
        };
        self.next_id += 1;
        Some(req)
    }

    /// The next request strictly before `t_edge`, buffering the first
    /// one at or past it (the window boundary).
    pub(crate) fn next_before(&mut self, t_edge: f64) -> Option<Request> {
        let req = self.next()?;
        if req.arrival_s < t_edge {
            Some(req)
        } else {
            self.pending = Some(req);
            None
        }
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.done && self.pending.is_none()
    }
}

/// The whole-fleet arrival stream as a plain iterator: request ids,
/// classes, times, and per-class ordinals are exactly those of the
/// engine's own replay, so a horizon of a billion requests streams
/// through `O(1)` state — nothing ever materializes the vector.
impl Iterator for ArrivalGen {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        ArrivalGen::next(self)
    }
}

/// How many arrival batches the generator may run ahead of the slowest
/// worker (the bounded-channel depth): the conservative lookahead
/// barrier. A batch is at most `ARRIVAL_CHUNK` requests, so this also
/// bounds buffered-arrival memory per worker.
const BATCHES_IN_FLIGHT: usize = 4;

/// Mid-window flush threshold: a cell's arrival buffer is delivered as
/// soon as it holds this many requests, so buffered arrivals stay
/// bounded however long (in requests) a window is.
const ARRIVAL_CHUNK: usize = 65536;

/// Cap on the *expected* request count of one generation window. With
/// the chunk flush bounding per-cell buffers this mainly bounds the
/// per-window bookkeeping sweep; together they keep a billion-request
/// horizon at a few MB of driver state.
const MAX_WINDOW_EXPECTED: f64 = 262_144.0;

/// Coarse floor on the window count per run (windows are a pacing and
/// memory knob, not a correctness one — see the module docs).
const MIN_WINDOWS: f64 = 64.0;

/// Per-window arrival batch shipped to one worker: `(cell index,
/// requests of that cell, in arrival order)`.
type WindowBatch = Vec<(usize, Vec<Request>)>;

/// Which plan a run executes, and on how many workers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// The one-cell whole-fleet plan, on the calling thread.
    WholeFleet,
    /// The scenario's [`ShardPlan`] on up to `workers` threads.
    Sharded { workers: usize },
}

/// What one run hands back: the merged report, each cell's sink in
/// cell-index order, and the boundary hook.
pub(crate) struct Run<S, H> {
    pub report: FleetReport,
    pub sinks: Vec<S>,
    pub hook: H,
}

/// The driver's boundary hook: what happens to each arrival a
/// one-worker run delivers, and at each window edge. The defaults are
/// the open loop — admit everything, do nothing at edges.
///
/// Worker threads always deliver open-loop, so a hook that overrides
/// `arrive` or `edge` must run the whole-fleet plan, whose single cell
/// always runs inline.
pub(crate) trait WindowHook {
    /// The window length, seconds; `None` takes the open-loop window
    /// derived from the fleet's fastest quote.
    fn window_s(&self) -> Option<f64> {
        None
    }

    /// Delivers one arrival to the cell owning its class.
    fn arrive<S: TraceSink>(&mut self, cell: &mut CellEngine<'_, S>, req: Request) {
        cell.advance_through(req.arrival_s);
        cell.admit(req);
    }

    /// Runs at window edge `t_edge`, once every arrival before it has
    /// been delivered.
    fn edge<S: TraceSink>(&mut self, _cells: &mut [CellEngine<'_, S>], _t_edge: f64) {}
}

/// The open-loop hook.
pub(crate) struct OpenLoop;

impl WindowHook for OpenLoop {}

impl FleetScenario {
    /// The deterministic shard partition of this scenario (see
    /// [`ShardPlan`]) — demand-aware when the scenario quotes cleanly,
    /// traffic-weighted otherwise.
    #[must_use]
    pub fn shard_plan(&self) -> ShardPlan {
        ShardPlan::new(self, self.quote_table().ok().as_ref())
    }

    /// Runs the sharded engine: the scenario's [`ShardPlan`] cells,
    /// executed by `min(shards, threads, cells)` worker threads (1 ⇒
    /// everything on the calling thread), merged in canonical order.
    ///
    /// **Determinism contract:** same seed ⇒ bit-identical report for
    /// every `(shards, threads)` combination, including the same plan
    /// run on one worker; see the module docs for how the partitioned
    /// fleet differs semantically from
    /// [`simulate`](FleetScenario::simulate).
    ///
    /// # Errors
    ///
    /// Returns scenario-validation or core quoting failures.
    pub fn simulate_sharded(&self, shards: usize, threads: usize) -> Result<FleetReport> {
        let layout = Layout::Sharded {
            workers: shards.min(threads),
        };
        Ok(self
            .run(self.seed, layout, |_| NullSink, |_, _| OpenLoop)?
            .report)
    }

    /// [`simulate_sharded`](Self::simulate_sharded) with the telemetry
    /// layer recording: returns the ordinary report plus the merged
    /// [`FleetTrace`] (sampled request lifecycles and the engine
    /// profile).
    ///
    /// **Determinism contract:** the trace inherits the report's — the
    /// shard plan fixes the cells and their event order independently
    /// of `(shards, threads)`, per-cell events carry dense
    /// `(cell, seq)` ids, and cells merge in cell-index order, so the
    /// rendered JSONL is byte-identical at any shard/thread count for
    /// the same seed.
    ///
    /// # Errors
    ///
    /// As [`simulate_sharded`](Self::simulate_sharded).
    pub fn simulate_sharded_traced(
        &self,
        shards: usize,
        threads: usize,
        cfg: &TraceConfig,
    ) -> Result<(FleetReport, FleetTrace)> {
        let layout = Layout::Sharded {
            workers: shards.min(threads),
        };
        let n_classes = self.classes.len();
        let run = self.run(
            self.seed,
            layout,
            |cell| TracingSink::new(cell, n_classes, cfg),
            |_, _| OpenLoop,
        )?;
        Ok((run.report, FleetTrace::from_sinks(run.sinks)))
    }

    /// The whole run, for every entry point: validates, quotes, builds
    /// the layout's plan and its cells (cell `i` records into
    /// `make_sink(i)`), builds the hook from the quotes and the fresh
    /// cells, drives the arrival stream of `seed` through them, and
    /// merges the outcomes in cell-index order.
    pub(crate) fn run<S, H>(
        &self,
        seed: u64,
        layout: Layout,
        mut make_sink: impl FnMut(usize) -> S,
        make_hook: impl FnOnce(&QuoteTable, &mut [CellEngine<'_, S>]) -> H,
    ) -> Result<Run<S, H>>
    where
        S: TraceSink + Send,
        H: WindowHook,
    {
        self.validate()?;
        let quotes = self.quote_table()?;
        let (plan, workers) = match layout {
            Layout::WholeFleet => (ShardPlan::whole_fleet(self), 1),
            Layout::Sharded { workers } => (ShardPlan::new(self, Some(&quotes)), workers),
        };
        let mut cells: Vec<CellEngine<'_, S>> = plan
            .cells
            .iter()
            .enumerate()
            .map(|(i, spec)| CellEngine::with_sink(self, &quotes, spec, make_sink(i)))
            .collect();
        let mut hook = make_hook(&quotes, &mut cells);
        let window_s = hook.window_s().unwrap_or_else(|| window_len(self, &quotes));
        let workers = workers.clamp(1, cells.len());
        let finished = drive(
            self,
            seed,
            cells,
            &plan.class_to_cell,
            workers,
            window_s,
            &mut hook,
        );
        let (outcomes, mut sinks): (Vec<CellOutcome>, Vec<S>) = finished.into_iter().unzip();
        for (outcome, sink) in outcomes.iter().zip(&mut sinks) {
            // assemble() folds this cell's ledger and one slot per class
            sink.count(ProfileOp::MergeFold, 1 + outcome.classes.len() as u64);
        }
        Ok(Run {
            report: merge::assemble(self, &outcomes),
            sinks,
            hook,
        })
    }
}

/// The open-loop generation window: the fleet's fastest per-frame
/// quote is the lookahead floor (nothing observable happens on a finer
/// scale), with a coarse floor of 1/[`MIN_WINDOWS`] horizon so short
/// runs still pipeline across workers.
fn window_len(scenario: &FleetScenario, quotes: &QuoteTable) -> f64 {
    let lookahead = quotes.min_per_frame_s();
    let floor = scenario.horizon_s / MIN_WINDOWS;
    let window = if lookahead.is_finite() && lookahead > floor {
        lookahead
    } else {
        floor
    };
    // Cap the window's expected request count so the per-window sweep
    // stays bounded at planetary arrival rates (the window is pacing,
    // not correctness — shrinking it never changes the report).
    let mean = scenario.arrival.mean_rate_rps();
    if mean.is_finite() && mean * window > MAX_WINDOW_EXPECTED {
        MAX_WINDOW_EXPECTED / mean
    } else {
        window
    }
}

/// The one driver (module docs): streams the arrivals of `seed` into
/// `cells` in windows of `window_s`, on `workers` threads, and returns
/// each cell's `(outcome, sink)` in cell-index order. With one worker
/// every flush goes through `hook`; with more, worker `w` owns cells
/// `w, w + workers, …` and delivers open-loop.
fn drive<'a, S: TraceSink + Send, H: WindowHook>(
    scenario: &'a FleetScenario,
    seed: u64,
    cells: Vec<CellEngine<'a, S>>,
    class_to_cell: &[usize],
    workers: usize,
    window_s: f64,
    hook: &mut H,
) -> Vec<(CellOutcome, S)> {
    let n_cells = cells.len();
    if workers <= 1 {
        let mut inline = Inline { cells, hook };
        feed(
            scenario,
            seed,
            class_to_cell,
            n_cells,
            window_s,
            &mut inline,
        );
        return inline
            .cells
            .into_iter()
            .map(CellEngine::finish_with_sink)
            .collect();
    }
    let mut owned: Vec<Vec<CellEngine<'a, S>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, cell) in cells.into_iter().enumerate() {
        owned[i % workers].push(cell);
    }
    let finished: Vec<Vec<(CellOutcome, S)>> = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for mut mine in owned {
            let (tx, rx) = mpsc::sync_channel::<WindowBatch>(BATCHES_IN_FLIGHT);
            senders.push(tx);
            handles.push(scope.spawn(move || {
                for batch in rx {
                    for (i, reqs) in batch {
                        // cell i is this worker's (i / workers)-th
                        let cell = &mut mine[i / workers];
                        for req in reqs {
                            OpenLoop.arrive(cell, req);
                        }
                    }
                }
                mine.into_iter()
                    .map(CellEngine::finish_with_sink)
                    .collect::<Vec<_>>()
            }));
        }
        // dropping the delivery closes the channels: workers drain and finish
        feed(
            scenario,
            seed,
            class_to_cell,
            n_cells,
            window_s,
            &mut ToWorkers { senders },
        );
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    // worker w finished cells w, w + workers, … in that order
    let mut per_worker: Vec<_> = finished.into_iter().map(Vec::into_iter).collect();
    (0..n_cells)
        .map(|i| {
            per_worker[i % workers]
                .next()
                .expect("every cell reports exactly once")
        })
        .collect()
}

/// The driver loop: generates the arrival stream of `seed`, buffers each
/// arrival for its cell, flushes a buffer at `ARRIVAL_CHUNK` requests,
/// and hands every buffer over at each window edge.
fn feed(
    scenario: &FleetScenario,
    seed: u64,
    class_to_cell: &[usize],
    n_cells: usize,
    window_s: f64,
    out: &mut impl Deliver,
) {
    let mut gen = ArrivalGen::new(scenario, seed);
    let mut bufs: Vec<Vec<Request>> = (0..n_cells).map(|_| Vec::new()).collect();
    let mut t_edge = window_s;
    loop {
        while let Some(req) = gen.next_before(t_edge) {
            let cell = class_to_cell[req.class];
            bufs[cell].push(req);
            if bufs[cell].len() >= ARRIVAL_CHUNK {
                out.chunk(cell, &mut bufs[cell]);
            }
        }
        out.edge(&mut bufs, t_edge);
        if gen.exhausted() {
            break;
        }
        t_edge += window_s;
    }
}

/// Where the driver loop's flushed buffers go. Either way a cell's
/// requests arrive in generation order.
trait Deliver {
    /// Cell `cell`'s buffer filled up mid-window.
    fn chunk(&mut self, cell: usize, buf: &mut Vec<Request>);

    /// Window edge `t_edge`: every cell's buffer.
    fn edge(&mut self, bufs: &mut [Vec<Request>], t_edge: f64);
}

/// One worker: the calling thread owns every cell and delivers through
/// the hook.
struct Inline<'h, 'a, S: TraceSink, H> {
    cells: Vec<CellEngine<'a, S>>,
    hook: &'h mut H,
}

impl<S: TraceSink, H: WindowHook> Deliver for Inline<'_, '_, S, H> {
    fn chunk(&mut self, cell: usize, buf: &mut Vec<Request>) {
        let cell = &mut self.cells[cell];
        for req in buf.drain(..) {
            self.hook.arrive(cell, req);
        }
    }

    fn edge(&mut self, bufs: &mut [Vec<Request>], t_edge: f64) {
        for (cell, buf) in bufs.iter_mut().enumerate() {
            self.chunk(cell, buf);
        }
        self.hook.edge(&mut self.cells, t_edge);
    }
}

/// Several workers: cell `i`'s buffers travel worker `i % workers`'s
/// channel — a chunk on its own, a window edge as one batch per worker.
struct ToWorkers {
    senders: Vec<mpsc::SyncSender<WindowBatch>>,
}

impl Deliver for ToWorkers {
    fn chunk(&mut self, cell: usize, buf: &mut Vec<Request>) {
        let reqs = std::mem::replace(buf, Vec::with_capacity(ARRIVAL_CHUNK));
        self.senders[cell % self.senders.len()]
            .send(vec![(cell, reqs)])
            .expect("worker outlives the generator");
    }

    fn edge(&mut self, bufs: &mut [Vec<Request>], _t_edge: f64) {
        let workers = self.senders.len();
        for (w, tx) in self.senders.iter().enumerate() {
            let mut batch: WindowBatch = Vec::new();
            for i in (w..bufs.len()).step_by(workers) {
                if !bufs[i].is_empty() {
                    let hint = bufs[i].len().min(ARRIVAL_CHUNK);
                    batch.push((i, std::mem::replace(&mut bufs[i], Vec::with_capacity(hint))));
                }
            }
            if !batch.is_empty() {
                tx.send(batch).expect("worker outlives the generator");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{chaos_timeline, ChaosConfig, ChaosKind};
    use crate::workload::{ArrivalProcess, NetworkClass};
    use pcnna_core::PcnnaConfig;

    fn scenario(n_classes: usize, n_instances: usize) -> FleetScenario {
        FleetScenario {
            classes: (0..n_classes)
                .map(|i| NetworkClass::lenet5(0.002 + 0.001 * i as f64, 1.0))
                .collect(),
            arrival: ArrivalProcess::Poisson { rate_rps: 20_000.0 },
            instances: vec![PcnnaConfig::default(); n_instances],
            horizon_s: 0.02,
            queue_capacity: 10_000,
            seed: 7,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn degenerate_single_cell_plan() {
        // One class ⇒ one cell owning the whole fleet.
        let s = scenario(1, 8);
        let plan = ShardPlan::new(&s, None);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].instances, 0..8);
        assert_eq!(plan.cells[0].queue_capacity, s.queue_capacity);
    }

    #[test]
    fn degenerate_one_instance_per_cell() {
        // classes == instances: every cell gets exactly one instance.
        let s = scenario(4, 4);
        let plan = ShardPlan::new(&s, None);
        assert_eq!(plan.cells.len(), 4);
        for cell in &plan.cells {
            assert_eq!(cell.instances.len(), 1);
        }
        // instance ranges tile 0..4 contiguously
        let mut next = 0;
        for cell in &plan.cells {
            assert_eq!(cell.instances.start, next);
            next = cell.instances.end;
        }
        assert_eq!(next, 4);
    }

    #[test]
    fn degenerate_more_classes_than_instances() {
        // 6 classes over 2 instances: the plan can build at most 2
        // cells (a cell must own at least one instance), and every
        // class still lands in exactly one cell.
        let s = scenario(6, 2);
        let plan = ShardPlan::new(&s, None);
        assert!(plan.cells.len() <= 2, "{} cells", plan.cells.len());
        assert_eq!(plan.class_to_cell.len(), 6);
        let mut owned = [0usize; 6];
        for (class, &cell) in plan.class_to_cell.iter().enumerate() {
            assert!(cell < plan.cells.len());
            assert!(plan.cells[cell].classes.contains(&class));
            owned[class] += 1;
        }
        assert!(owned.iter().all(|&n| n == 1));
    }

    #[test]
    fn streaming_iterator_matches_windowed_stepping() {
        // The streaming contract: driving ArrivalGen through
        // `next_before` window edges (what the sharded driver does)
        // must reproduce the plain iterator's event sequence exactly —
        // same ids, same classes, same arrival instants, for any
        // window length. Ids are per-run ordinals, so equality here is
        // what keeps stride-sampled trace ids shard-layout-independent.
        for seed in [0u64, 7, 42, 1234] {
            let s = FleetScenario {
                seed,
                ..scenario(4, 8)
            };
            let materialized: Vec<Request> = ArrivalGen::new(&s, seed).collect();
            assert!(!materialized.is_empty());
            for window_s in [1e-4, 7.3e-4, 5e-3, 1.0] {
                let mut gen = ArrivalGen::new(&s, seed);
                let mut streamed: Vec<Request> = Vec::new();
                let mut t_edge = window_s;
                loop {
                    while let Some(req) = gen.next_before(t_edge) {
                        streamed.push(req);
                    }
                    if gen.exhausted() {
                        break;
                    }
                    t_edge += window_s;
                }
                assert_eq!(materialized, streamed, "window {window_s}");
            }
        }
    }

    /// A hook that only fixes the window length.
    struct Window(f64);

    impl WindowHook for Window {
        fn window_s(&self) -> Option<f64> {
            Some(self.0)
        }
    }

    #[test]
    fn window_length_does_not_change_the_result() {
        // The driver's window is pacing, not semantics: a multi-class
        // plan under a chaos fault timeline must produce the same report
        // and byte-identical trace JSONL for a tiny window, the
        // open-loop window and one window spanning the horizon, on one
        // worker and on three.
        let base = scenario(6, 12);
        let s = FleetScenario {
            faults: chaos_timeline(
                ChaosKind::ChannelLossBurst,
                &base.instances,
                base.horizon_s,
                &ChaosConfig::default(),
            ),
            ..base
        };
        let quotes = s.quote_table().unwrap();
        let tcfg = TraceConfig::default();
        let traced = |window_s: f64, workers: usize| {
            let run = s
                .run(
                    s.seed,
                    Layout::Sharded { workers },
                    |cell| TracingSink::new(cell, s.classes.len(), &tcfg),
                    |_, _| Window(window_s),
                )
                .unwrap();
            (run.report, FleetTrace::from_sinks(run.sinks).render_jsonl())
        };
        let open_loop = window_len(&s, &quotes);
        let (report, jsonl) = traced(open_loop, 1);
        assert!(s.shard_plan().n_cells() >= 3);
        assert!(report.completed > 0);
        assert!(
            report.resilience.fault_events > 0,
            "the chaos timeline fires"
        );
        for window_s in [1e-5, open_loop, s.horizon_s] {
            for workers in [1, 3] {
                let (r, j) = traced(window_s, workers);
                assert_eq!(report, r, "window {window_s} workers {workers}");
                assert!(
                    jsonl == j,
                    "trace differs: window {window_s} workers {workers}"
                );
            }
        }
    }
}
