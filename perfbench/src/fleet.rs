//! `fleet_budget`: a durable hub (`SyncPolicy::Never`) of a few thousand
//! small tenants built from 32 distinct contents, under a fixed resident
//! budget of about a quarter of its unbounded peak. One client replays a
//! Zipf(1.3) script of 15% applies and 85% `audit_against` at
//! `b′ ∈ {0.3, 0.5}` — the workload where eviction, rehydration through
//! `recover` and cross-tenant `Adv(b′)` interning do real work.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bgkanon::data::{adult, Table};
use bgkanon::wal::{encode_record, WalWriter};
use bgkanon::{DurabilityOptions, MemoryStats, Publisher, SessionHub, SyncPolicy};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::common::{
    digest_groups, digest_report, fresh_dir, mib, mix, nproc, peak_rss_mb, scattered_delta,
    Lockstep, Outcome, RunArgs,
};
use crate::layers::{self, LayerTotals};
use crate::report::{median, Dist, Ratio, Report};
use crate::trace::Tracer;

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tenants: usize,
    pub rows: usize,
    pub distinct: usize,
    pub k: usize,
    pub checkpoint_every: u64,
    /// Resident budget (bytes): about a quarter of the unbounded hub's
    /// peak on this shape, fixed so every run evicts against the same line.
    pub budget_bytes: usize,
    /// Operations the traced run replays.
    pub traced_ops: usize,
}

pub const SHAPE: Shape = Shape {
    tenants: 2000,
    rows: 64,
    distinct: 32,
    k: 4,
    checkpoint_every: 8,
    budget_bytes: 8 << 20,
    traced_ops: 4000,
};

const ZIPF_S: f64 = 1.3;
const APPLY_FRACTION: f64 = 0.15;
const B_PRIMES: [f64; 2] = [0.3, 0.5];
const T: f64 = 0.2;
/// Rows each delta deletes and inserts.
const CHURN: usize = 2;
const DONORS: usize = 512;
const SETUP_REPS: usize = 5;

/// One scripted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Apply(usize),
    Audit(usize, f64),
}

/// The deterministic Zipf(1.3) operation stream of a seed (tenant rank 0
/// is the hottest).
pub struct Script {
    rng: SmallRng,
    cdf: Vec<f64>,
}

impl Script {
    pub fn new(seed: u64, tenants: usize) -> Self {
        let weights: Vec<f64> = (0..tenants)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Script {
            rng: SmallRng::seed_from_u64(mix(seed, 0x5c)),
            cdf,
        }
    }
}

impl Iterator for Script {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let tenant = self.cdf.partition_point(|c| *c < x).min(self.cdf.len() - 1);
        Some(if self.rng.gen_bool(APPLY_FRACTION) {
            Op::Apply(tenant)
        } else {
            Op::Audit(tenant, B_PRIMES[(self.rng.gen::<u64>() % 2) as usize])
        })
    }
}

/// Generated inputs plus the open hub.
pub struct Setup {
    pub shape: Shape,
    pub seed: u64,
    pub dir: PathBuf,
    pub hub: SessionHub,
    pub contents: Vec<Table>,
    pub donors: Table,
}

fn name(t: usize) -> String {
    format!("tenant-{t:05}")
}

impl Setup {
    pub fn build(
        shape: Shape,
        seed: u64,
        budget: Option<usize>,
        tag: &str,
        tracer: Option<&mut Tracer>,
    ) -> (Setup, f64) {
        let dir = fresh_dir(tag);
        let started = Instant::now();
        let generate = || {
            let contents: Vec<Table> = (0..shape.distinct)
                .map(|c| adult::generate(shape.rows, mix(seed, c as u64)))
                .collect();
            (contents, adult::generate(DONORS, mix(seed, 0xd0)))
        };
        let (contents, donors) = match tracer {
            Some(t) => t.span("data.generate", 0, generate),
            None => generate(),
        };
        let options = DurabilityOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: shape.checkpoint_every,
            verify_on_open: false,
            max_resident_bytes: budget,
        };
        let (hub, _) = SessionHub::open_with(&dir, options).expect("open fleet hub");
        let publisher = Publisher::new().k_anonymity(shape.k);
        for t in 0..shape.tenants {
            hub.register(&name(t), &contents[t % shape.distinct], &publisher)
                .expect("generated tenant satisfies k-anonymity");
        }
        let secs = started.elapsed().as_secs_f64();
        (
            Setup {
                shape,
                seed,
                dir,
                hub,
                contents,
                donors,
            },
            secs,
        )
    }

    /// The delta of script position `idx` (tables keep their row count,
    /// so the delta depends on the position only).
    fn delta(&self, idx: usize) -> bgkanon::data::Delta {
        scattered_delta(
            &self.contents[0],
            &self.donors,
            CHURN,
            mix(self.seed, 0xde17a ^ ((idx as u64) << 20)),
        )
    }
}

/// When the client stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(usize),
}

/// What the client measured.
#[derive(Default)]
pub struct LaneOut {
    pub apply_ms: Vec<f64>,
    pub audit_ms: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub ops: usize,
    pub failed: u64,
    pub resident_peak: usize,
    pub digests: Vec<u64>,
    pub elapsed_s: f64,
    pub stats: Option<MemoryStats>,
}

/// The traced lane's state: one lockstep replay per tenant and one WAL.
struct TraceState {
    tracer: Tracer,
    lockstep: Vec<Lockstep>,
    wal: WalWriter,
    dirty: u64,
    groups: u64,
    warm_ops: u64,
    rehydrating_ms: Vec<f64>,
    mismatches: u64,
}

/// The single client's closed loop over the script.
fn lane(setup: &Setup, stop: Stop, mut trace: Option<&mut TraceState>) -> LaneOut {
    let hub = &setup.hub;
    let mut out = LaneOut::default();
    let mut before = hub.memory_stats();
    out.resident_peak = before.resident_bytes;
    let started = Instant::now();
    for (idx, op) in Script::new(setup.seed, setup.shape.tenants).enumerate() {
        match stop {
            Stop::After(window) if started.elapsed() >= window => break,
            Stop::Ops(n) if idx >= n => break,
            _ => {}
        }
        out.ops += 1;
        let tenant = match op {
            Op::Apply(t) | Op::Audit(t, _) => t,
        };
        let delta = matches!(op, Op::Apply(_)).then(|| setup.delta(idx));
        let t0 = Instant::now();
        let reply = match (op, &delta) {
            (Op::Apply(_), Some(d)) => hub
                .apply(&name(tenant), d)
                .map(|s| (digest_groups(s.anonymized()), Some(s))),
            (Op::Audit(_, b), _) => hub
                .audit_against(&name(tenant), b, T)
                .map(|r| (digest_report(&r), None)),
            _ => unreachable!("applies carry a delta"),
        };
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        let after = hub.memory_stats();
        out.resident_peak = out.resident_peak.max(after.resident_bytes);
        let Ok((digest, snap)) = reply else {
            out.failed += 1;
            before = after;
            continue;
        };
        out.digests.push(digest);
        out.op_ms.push(ms);
        match op {
            Op::Apply(_) => out.apply_ms.push(ms),
            Op::Audit(..) => out.audit_ms.push(ms),
        }
        if let Some(ts) = trace.as_mut() {
            let op_id = idx as u64 + 1;
            let rehydrated = after.rehydrations > before.rehydrations;
            if rehydrated {
                ts.rehydrating_ms.push(ms);
            } else {
                ts.warm_ops += 1;
            }
            let lock = &mut ts.lockstep[tenant];
            match (op, delta, snap) {
                (Op::Apply(_), Some(delta), Some(snap)) => {
                    ts.tracer.record("hub.apply", op_id, t0, t1);
                    let (session, layers, dirty) = lock.apply(&delta, &mut ts.tracer, op_id);
                    let record = encode_record(lock.session.deltas_applied() as u64, &delta);
                    let wal = &mut ts.wal;
                    ts.tracer
                        .span("wal.append", op_id, || wal.append(&record))
                        .expect("append to the traced lane's WAL");
                    ts.mismatches += u64::from(session != digest || layers != digest);
                    ts.dirty += dirty;
                    ts.groups += snap.group_count() as u64;
                }
                (Op::Audit(_, b), _, _) => {
                    ts.tracer.record("hub.audit_against", op_id, t0, t1);
                    let lookups = |s: &MemoryStats| s.intern_hits + s.intern_misses;
                    let report = if lookups(&after) > lookups(&before) {
                        let estimated = after.intern_misses > before.intern_misses;
                        Some(lock.audit_cold(b, T, estimated, &mut ts.tracer, op_id))
                    } else {
                        lock.audit_cached(b.to_bits(), T, &mut ts.tracer, op_id)
                    };
                    ts.mismatches += u64::from(report.map(|r| digest_report(&r)) != Some(digest));
                }
                _ => unreachable!("applies carry a delta and a snapshot"),
            }
        }
        before = after;
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out.stats = Some(hub.memory_stats());
    out
}

fn context(report: &mut Report, args: &RunArgs, shape: &Shape, ops: usize) {
    report.count("nproc", nproc() as u64);
    report.count("seed", args.seed);
    report.count("clients", 1);
    report.count("tenants", shape.tenants as u64);
    report.count("rows", (shape.tenants * shape.rows) as u64);
    report.count("ops", ops as u64);
    report.value("budget_mb", mib(shape.budget_bytes), "MB");
}

/// Replay `ops` operations on an unbounded hub: the reference every
/// budgeted lane's replies must match. Returns its digests and peak.
fn unbounded(shape: Shape, seed: u64, ops: usize) -> (Vec<u64>, usize) {
    let (setup, _) = Setup::build(shape, seed, None, "fleet-unbounded", None);
    let out = lane(&setup, Stop::Ops(ops), None);
    let _ = std::fs::remove_dir_all(&setup.dir);
    (out.digests, out.resident_peak)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    run_shape(args, SHAPE)
}

pub fn run_shape(args: &RunArgs, shape: Shape) -> Outcome {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = setup.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let (s, secs) = Setup::build(shape, args.seed, Some(shape.budget_bytes), "fleet", None);
        setup_secs.push(secs);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let out = lane(
        &setup,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        None,
    );
    let rss = peak_rss_mb();
    let stats = out.stats.expect("lane stats");
    let dir = setup.dir.clone();
    drop(setup);
    let _ = std::fs::remove_dir_all(dir);

    // Correctness, outside the window: the same script on an unbounded hub
    // gives the same replies, and the budget held.
    let (reference, unbounded_peak) = unbounded(shape, args.seed, out.ops);
    let mut mismatches = u64::from(reference != out.digests);
    mismatches += u64::from(out.resident_peak > shape.budget_bytes);
    let failed = out.failed + mismatches;
    let ops = out.ops as u64;
    let setup_s = median(&setup_secs);
    let ops_per_s = out.ops as f64 / out.elapsed_s;
    let write = median(&out.apply_ms);
    let read = median(&out.audit_ms);

    let mut report = Report::default();
    context(&mut report, args, &shape, out.ops);
    report.count("applies", out.apply_ms.len() as u64);
    report.count("audits", out.audit_ms.len() as u64);
    report.value("window_s", out.elapsed_s, "s");
    report.value("setup_s", setup_s, "s");
    report.dist("apply_ms", Dist::new("ms", out.apply_ms.clone(), 0.95));
    report.dist("audit_ms", Dist::new("ms", out.audit_ms.clone(), 0.99));
    report.value("ops_per_s", ops_per_s, "ops/s");
    report.value("resident_peak_mb", mib(out.resident_peak), "MB");
    report.value("unbounded_peak_mb", mib(unbounded_peak), "MB");
    report.ratio(
        "hub.warm_hit_rate",
        Ratio::new(ops.saturating_sub(stats.rehydrations), ops),
    );
    report.count("hub.evictions", stats.evictions);
    report.count("hub.rehydrations", stats.rehydrations);
    report.ratio(
        "knowledge.intern_hit_ratio",
        Ratio::new(stats.intern_hits, stats.intern_hits + stats.intern_misses),
    );
    report.value("peak_rss_mb", rss, "MB");
    report.ratio("failed_frac", Ratio::new(failed, ops));
    report.count("correctness_mismatches", mismatches);

    Outcome {
        correct: mismatches == 0,
        attempted: ops,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", ops_per_s, "ops/s"),
            ("write_ms", write, "ms"),
            ("read_ms", read, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
        report,
    }
}

/// The traced run: replay a fixed prefix of the script untraced, then again
/// with every layer call as a span; both must agree with each other and
/// with an unbounded hub.
pub fn run_traced(args: &RunArgs) -> Outcome {
    run_traced_shape(args, SHAPE)
}

pub fn run_traced_shape(args: &RunArgs, shape: Shape) -> Outcome {
    let stop = Stop::Ops(shape.traced_ops);
    let (plain, _) = Setup::build(
        shape,
        args.seed,
        Some(shape.budget_bytes),
        "fleet-untraced",
        None,
    );
    let plain_out = lane(&plain, stop, None);
    let _ = std::fs::remove_dir_all(&plain.dir);
    drop(plain);

    let mut tracer = Tracer::new(Instant::now());
    let (setup, _) = Setup::build(
        shape,
        args.seed,
        Some(shape.budget_bytes),
        "fleet-traced",
        Some(&mut tracer),
    );
    let lockstep = (0..shape.tenants)
        .map(|t| Lockstep::open(&setup.contents[t % shape.distinct], shape.k, &mut tracer, 0))
        .collect();
    let wal_dir = fresh_dir("fleet-traced-wal");
    let wal = WalWriter::create(&wal_dir.join("wal.log"), 0, SyncPolicy::Never)
        .expect("create traced WAL");
    let mut state = TraceState {
        tracer,
        lockstep,
        wal,
        dirty: 0,
        groups: 0,
        warm_ops: 0,
        rehydrating_ms: Vec::new(),
        mismatches: 0,
    };
    let out = lane(&setup, stop, Some(&mut state));
    let _ = std::fs::remove_dir_all(&setup.dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    drop(setup);
    let (reference, _) = unbounded(shape, args.seed, shape.traced_ops);

    let stats = out.stats.expect("lane stats");
    let mismatches = state.mismatches
        + u64::from(out.digests != plain_out.digests)
        + u64::from(out.digests != reference)
        + u64::from(out.resident_peak > shape.budget_bytes);
    let ops = out.ops as u64;
    let mut totals = LayerTotals::new(std::mem::take(&mut state.tracer.spans));
    totals.dirty = Ratio::new(state.dirty, state.groups);
    totals.intern = Ratio::new(stats.intern_hits, stats.intern_hits + stats.intern_misses);
    totals.evictions = stats.evictions;
    totals.rehydrations = stats.rehydrations;
    totals.hub_ops = ops;
    totals.warm_ops = state.warm_ops;
    totals.untraced_op_ms = plain_out.op_ms;
    totals.rehydrating_ms = state.rehydrating_ms;
    let mut report = Report::default();
    context(&mut report, args, &shape, out.ops);
    report.count("correctness_mismatches", mismatches);
    let metrics = layers::finish(&totals, &mut report, "fleet_budget");
    Outcome {
        correct: mismatches == 0,
        attempted: ops,
        failed: mismatches,
        metrics,
        report,
    }
}
