//! `serve_durable`: the operator's request path on a durable hub. Clients
//! (one per core, each owning disjoint tenants) loop over one release — an
//! `apply` of a 1% scattered delta, then `audit_against(b′ = 0.3)` of the
//! new version — and five cached reads against a frozen `Adv(0.25)`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon::data::{adult, Delta, Parallelism, Table};
use bgkanon::privacy::Auditor;
use bgkanon::wal::{encode_record, WalWriter};
use bgkanon::{DurabilityOptions, Publisher, SessionHub, SyncPolicy};

use crate::common::{
    digest_groups, digest_report, digest_table, fresh_dir, kernel_auditor, mib, mix, nproc,
    peak_rss_mb, scattered_delta, Lockstep, Outcome, RunArgs, FROZEN,
};
use crate::layers::{self, LayerTotals};
use crate::report::{median, Dist, Ratio, Report};
use crate::trace::Tracer;

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tenants: usize,
    pub rows: usize,
    pub k: usize,
    pub reads_per_release: usize,
    pub checkpoint_every: u64,
    /// Releases per tenant replayed by the traced run (not a multiple of
    /// `checkpoint_every`, so the reopen replays a WAL tail).
    pub traced_releases: usize,
}

pub const SHAPE: Shape = Shape {
    tenants: 4,
    rows: 20_000,
    k: 10,
    reads_per_release: 5,
    checkpoint_every: 8,
    traced_releases: 21,
};

/// Bandwidth of the release audit's hub-estimated adversary.
const B_RELEASE: f64 = 0.3;
/// Bandwidth of the readers' frozen adversary.
const B_FROZEN: f64 = 0.25;
/// Audit threshold.
const T: f64 = 0.2;
/// Donor rows the deltas' inserts are drawn from.
const DONORS: usize = 4096;
const SETUP_REPS: usize = 5;
const REOPEN_REPS: usize = 3;

/// Everything set-up builds: generated inputs, the open hub with its
/// registered tenants, and the readers' frozen auditors.
pub struct Setup {
    pub shape: Shape,
    pub seed: u64,
    pub dir: PathBuf,
    pub hub: SessionHub,
    pub names: Vec<String>,
    pub genesis: Vec<Table>,
    pub donors: Table,
    pub auditors: Vec<Auditor>,
}

impl Setup {
    fn options(shape: &Shape) -> DurabilityOptions {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: shape.checkpoint_every,
            verify_on_open: false,
            max_resident_bytes: None,
        }
    }

    /// Build the workload's inputs and hub; returns the set-up and its
    /// wall time in seconds. `tracer` records the generation span.
    pub fn build(shape: Shape, seed: u64, tag: &str, tracer: Option<&mut Tracer>) -> (Setup, f64) {
        let dir = fresh_dir(tag);
        let started = Instant::now();
        let generate = || {
            let genesis: Vec<Table> = (0..shape.tenants)
                .map(|i| adult::generate(shape.rows, mix(seed, i as u64)))
                .collect();
            (genesis, adult::generate(DONORS, mix(seed, 0xd0)))
        };
        let (genesis, donors) = match tracer {
            Some(t) => t.span("data.generate", 0, generate),
            None => generate(),
        };
        let (hub, _) =
            SessionHub::open_with(&dir, Self::options(&shape)).expect("open durable hub");
        let publisher = Publisher::new().k_anonymity(shape.k);
        let names: Vec<String> = (0..shape.tenants).map(|i| format!("tenant-{i}")).collect();
        for (name, table) in names.iter().zip(&genesis) {
            hub.register(name, table, &publisher)
                .expect("generated tenant satisfies k-anonymity");
        }
        let auditors = genesis
            .iter()
            .map(|t| kernel_auditor(t, B_FROZEN))
            .collect();
        let secs = started.elapsed().as_secs_f64();
        (
            Setup {
                shape,
                seed,
                dir,
                hub,
                names,
                genesis,
                donors,
                auditors,
            },
            secs,
        )
    }

    /// The delta that takes tenant `t` to `version`.
    pub fn delta(&self, t: usize, version: u64) -> Delta {
        scattered_delta(
            &self.genesis[t],
            &self.donors,
            self.shape.rows / 200,
            mix(self.seed, ((t as u64) << 40) | version),
        )
    }

    /// Tenants owned by client `c` of `clients`.
    fn owned(&self, c: usize, clients: usize) -> Vec<usize> {
        (c..self.shape.tenants).step_by(clients).collect()
    }
}

/// Clients to run: one per core, never more than tenants.
pub fn clients(shape: &Shape) -> usize {
    nproc().clamp(1, shape.tenants)
}

/// When a client stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this much wall time (checked before each release).
    After(Duration),
    /// After this many releases per owned tenant.
    Releases(usize),
}

/// The traced lane's per-client state.
struct TraceState {
    tracer: Tracer,
    lockstep: Vec<Lockstep>,
    wal: Vec<WalWriter>,
    next_op: u64,
    dirty: u64,
    groups: u64,
    mismatches: u64,
}

/// What one client measured.
#[derive(Default)]
pub struct ClientOut {
    pub apply_ms: Vec<f64>,
    pub release_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub hub_op_ms: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub resident_peak: usize,
    /// `(tenant, version reached)` for each owned tenant.
    pub versions: Vec<(usize, u64)>,
    /// Per owned tenant, the digest of every reply in order.
    pub digests: Vec<(usize, Vec<u64>)>,
    trace: Option<TraceState>,
}

/// One client's closed loop: per release, `apply` + `audit_against` of one
/// owned tenant (round robin), then `reads_per_release` cached reads over
/// its tenants. With `trace`, every layer call the hub makes is replayed
/// next to it as a span and checked against the hub's reply.
fn client(
    setup: &Setup,
    c: usize,
    clients: usize,
    stop: Stop,
    started: Instant,
    mut trace: Option<TraceState>,
) -> ClientOut {
    let hub = &setup.hub;
    let owned = setup.owned(c, clients);
    let mut out = ClientOut {
        versions: owned.iter().map(|&t| (t, 0)).collect(),
        digests: owned.iter().map(|&t| (t, Vec::new())).collect(),
        ..ClientOut::default()
    };
    let mut round = 0usize;
    loop {
        match stop {
            Stop::After(window) if started.elapsed() >= window => break,
            Stop::Releases(n) if round >= n * owned.len() => break,
            _ => {}
        }
        let slot = round % owned.len();
        let t = owned[slot];
        let name = &setup.names[t];
        let version = out.versions[slot].1 + 1;
        let delta = setup.delta(t, version);

        let t0 = Instant::now();
        let applied = hub.apply(name, &delta);
        let t1 = Instant::now();
        out.ops += 1;
        let snap = match applied {
            Ok(snap) => snap,
            Err(_) => {
                out.failed += 1;
                round += 1;
                continue;
            }
        };
        out.versions[slot].1 = version;
        out.digests[slot].1.push(digest_groups(snap.anonymized()));
        out.apply_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.hub_op_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let stats = hub.memory_stats();
        out.resident_peak = out.resident_peak.max(stats.resident_bytes);
        let intern_before = stats.intern_misses;
        if let Some(ts) = trace.as_mut() {
            ts.next_op += 1;
            let op = ts.next_op;
            let kind = if version.is_multiple_of(setup.shape.checkpoint_every) {
                "hub.apply.checkpoint"
            } else {
                "hub.apply.plain"
            };
            ts.tracer.record(kind, op, t0, t1);
            let (session_digest, layer_digest, dirty) =
                ts.lockstep[slot].apply(&delta, &mut ts.tracer, op);
            let record = encode_record(version, &delta);
            let wal = &mut ts.wal[slot];
            ts.tracer
                .span("wal.append", op, || wal.append(&record))
                .expect("append to the traced lane's WAL");
            let hub_digest = digest_groups(snap.anonymized());
            ts.mismatches += u64::from(session_digest != hub_digest || layer_digest != hub_digest);
            ts.dirty += dirty;
            ts.groups += snap.group_count() as u64;
        }

        let t2 = Instant::now();
        let audited = hub.audit_against(name, B_RELEASE, T);
        let t3 = Instant::now();
        out.ops += 1;
        match audited {
            Ok(report) => {
                out.release_ms.push((t3 - t0).as_secs_f64() * 1e3);
                out.hub_op_ms.push((t3 - t2).as_secs_f64() * 1e3);
                out.digests[slot].1.push(digest_report(&report));
                if let Some(ts) = trace.as_mut() {
                    ts.next_op += 1;
                    let op = ts.next_op;
                    ts.tracer.record("hub.audit_against", op, t2, t3);
                    let estimated = hub.memory_stats().intern_misses > intern_before;
                    let replay =
                        ts.lockstep[slot].audit_cold(B_RELEASE, T, estimated, &mut ts.tracer, op);
                    ts.mismatches += u64::from(digest_report(&replay) != digest_report(&report));
                }
            }
            Err(_) => out.failed += 1,
        }
        out.resident_peak = out.resident_peak.max(hub.memory_stats().resident_bytes);

        for r in 0..setup.shape.reads_per_release {
            let rslot = (slot + r) % owned.len();
            let rt = owned[rslot];
            let t4 = Instant::now();
            let read = hub.audit_with(&setup.names[rt], &setup.auditors[rt], T);
            let t5 = Instant::now();
            out.ops += 1;
            let Ok(report) = read else {
                out.failed += 1;
                continue;
            };
            out.read_ms.push((t5 - t4).as_secs_f64() * 1e3);
            out.hub_op_ms.push((t5 - t4).as_secs_f64() * 1e3);
            out.digests[rslot].1.push(digest_report(&report));
            out.resident_peak = out.resident_peak.max(hub.memory_stats().resident_bytes);
            if let Some(ts) = trace.as_mut() {
                ts.next_op += 1;
                let op = ts.next_op;
                ts.tracer.record("hub.audit_with", op, t4, t5);
                let replay = ts.lockstep[rslot].audit_cached(FROZEN, T, &mut ts.tracer, op);
                let same = replay.is_some_and(|rep| digest_report(&rep) == digest_report(&report));
                ts.mismatches += u64::from(!same);
            }
        }
        round += 1;
    }
    out.trace = trace;
    out
}

/// Run every client to `stop` against `setup`'s hub.
fn run_clients(
    setup: &Setup,
    stop: Stop,
    traces: Option<Vec<TraceState>>,
) -> (Vec<ClientOut>, f64) {
    let n = clients(&setup.shape);
    let mut traces: Vec<Option<TraceState>> = match traces {
        Some(v) => v.into_iter().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    };
    let started = Instant::now();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .drain(..)
            .enumerate()
            .map(|(c, trace)| scope.spawn(move || client(setup, c, n, stop, started, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (outs, started.elapsed().as_secs_f64())
}

/// Mismatches between the hub's final state and a from-scratch replay:
/// each tenant's table is its genesis table with every scripted delta
/// applied, its publication a `Serial` publish of that table, and its
/// audits fresh `Serial` audits.
fn verify_final(setup: &Setup, versions: &[(usize, u64)]) -> u64 {
    let serial = Publisher::new()
        .k_anonymity(setup.shape.k)
        .parallelism(Parallelism::Serial);
    let mut mismatches = 0u64;
    for &(t, version) in versions {
        let name = &setup.names[t];
        let mut table = setup.genesis[t].clone();
        for v in 1..=version {
            table = table
                .apply_delta(&setup.delta(t, v))
                .expect("scripted delta");
        }
        let snap = setup.hub.snapshot(name).expect("registered tenant");
        let fresh = serial.publish(&table).expect("satisfiable");
        mismatches += u64::from(snap.version() != version);
        mismatches += u64::from(digest_table(snap.table()) != digest_table(&table));
        mismatches +=
            u64::from(digest_groups(snap.anonymized()) != digest_groups(&fresh.anonymized));
        let groups = fresh.anonymized.row_groups();
        let expected =
            kernel_auditor(&table, B_RELEASE).report_with(&table, &groups, T, Parallelism::Serial);
        let served = setup
            .hub
            .audit_against(name, B_RELEASE, T)
            .expect("registered tenant");
        mismatches += u64::from(digest_report(&served) != digest_report(&expected));
        let expected = setup.auditors[t].report_with(&table, &groups, T, Parallelism::Serial);
        let served = setup
            .hub
            .audit_with(name, &setup.auditors[t], T)
            .expect("registered tenant");
        mismatches += u64::from(digest_report(&served) != digest_report(&expected));
    }
    mismatches
}

/// Per-tenant `(table, publication, release audit)` digests of the hub.
fn state_digests(setup_names: &[String], hub: &SessionHub, audit: bool) -> Vec<(u64, u64, u64)> {
    setup_names
        .iter()
        .map(|name| {
            let snap = hub.snapshot(name).expect("recovered tenant");
            let report = if audit {
                digest_report(
                    &hub.audit_against(name, B_RELEASE, T)
                        .expect("recovered tenant"),
                )
            } else {
                0
            };
            (
                digest_table(snap.table()),
                digest_groups(snap.anonymized()),
                report,
            )
        })
        .collect()
}

/// Drop the hub and cold-reopen its directory `reps` times. Returns the
/// reopen times (s), the WAL records replayed, and the mismatches against
/// the dropped hub's state.
fn reopen(setup: Setup, reps: usize) -> (Vec<f64>, u64, u64) {
    let before = state_digests(&setup.names, &setup.hub, true);
    let Setup {
        shape,
        dir,
        hub,
        names,
        ..
    } = setup;
    drop(hub);
    let mut secs = Vec::with_capacity(reps);
    let mut replayed = 0u64;
    let mut mismatches = 0u64;
    for rep in 0..reps {
        let started = Instant::now();
        let opened = SessionHub::open_with(&dir, Setup::options(&shape));
        secs.push(started.elapsed().as_secs_f64());
        let Ok((hub, recovery)) = opened else {
            mismatches += 1;
            continue;
        };
        mismatches += u64::from(!recovery.is_clean() || recovery.recovered() != names.len());
        replayed = recovery.tenants.iter().map(|t| t.replayed as u64).sum();
        let after = state_digests(&names, &hub, rep == 0);
        for (a, b) in before.iter().zip(&after) {
            mismatches += u64::from(a.0 != b.0 || a.1 != b.1 || (rep == 0 && a.2 != b.2));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (secs, replayed, mismatches)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let shape = SHAPE;
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = setup.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let (s, secs) = Setup::build(shape, args.seed, "serve", None);
        setup_secs.push(secs);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let window = Duration::from_secs_f64(args.seconds);
    let (outs, elapsed) = run_clients(&setup, Stop::After(window), None);
    let rss = peak_rss_mb();
    let cat = |f: fn(&ClientOut) -> &Vec<f64>| -> Vec<f64> {
        outs.iter().flat_map(|o| f(o).iter().copied()).collect()
    };
    let apply = cat(|o| &o.apply_ms);
    let release = cat(|o| &o.release_ms);
    let read = cat(|o| &o.read_ms);
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    let op_failures: u64 = outs.iter().map(|o| o.failed).sum();
    let resident_peak = outs.iter().map(|o| o.resident_peak).max().unwrap_or(0);
    let versions: Vec<(usize, u64)> = outs
        .iter()
        .flat_map(|o| o.versions.iter().copied())
        .collect();

    let gate_mismatches = verify_final(&setup, &versions);
    let (reopen_secs, replayed, reopen_mismatches) = reopen(setup, REOPEN_REPS);
    let mismatches = gate_mismatches + reopen_mismatches;
    let failed = op_failures + mismatches;

    let setup_s = median(&setup_secs);
    let ops_per_s = ops as f64 / elapsed;
    let write = median(&release);
    let read_median = median(&read);

    let mut report = Report::default();
    context(&mut report, args, &shape, ops);
    report.count("releases", release.len() as u64);
    report.count("reads", read.len() as u64);
    report.value("window_s", elapsed, "s");
    report.value("setup_s", setup_s, "s");
    report.dist("release_ms", Dist::new("ms", release, 0.95));
    report.dist("apply_ms", Dist::new("ms", apply, 0.95));
    report.dist("audit_ms", Dist::new("ms", read, 0.99));
    report.value("ops_per_s", ops_per_s, "ops/s");
    report.value("reopen_s", median(&reopen_secs), "s");
    report.count("reopen.samples", reopen_secs.len() as u64);
    report.count("recover.records_replayed", replayed);
    report.value("resident_peak_mb", mib(resident_peak), "MB");
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
            ("read_ms", read_median, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
        report,
    }
}

fn context(report: &mut Report, args: &RunArgs, shape: &Shape, ops: u64) {
    report.count("nproc", nproc() as u64);
    report.count("seed", args.seed);
    report.count("clients", clients(shape) as u64);
    report.count("tenants", shape.tenants as u64);
    report.count("rows", (shape.tenants * shape.rows) as u64);
    report.count("ops", ops);
}

/// Build the traced lane's per-client state on a fresh set-up; its WALs
/// live in `wal_dir`, outside the hub's data root.
fn trace_states(setup: &Setup, tracer: &mut Tracer, wal_dir: &std::path::Path) -> Vec<TraceState> {
    let n = clients(&setup.shape);
    (0..n)
        .map(|c| {
            let owned = setup.owned(c, n);
            let mut state = TraceState {
                tracer: Tracer::new(tracer.epoch()),
                lockstep: Vec::new(),
                wal: Vec::new(),
                next_op: (c as u64 + 1) << 40,
                dirty: 0,
                groups: 0,
                mismatches: 0,
            };
            for &t in &owned {
                let mut lock = Lockstep::open(&setup.genesis[t], setup.shape.k, tracer, 0);
                lock.readers.push((
                    FROZEN,
                    u64::MAX,
                    Arc::new(bgkanon::privacy::SharedAuditSession::new(
                        setup.auditors[t].clone(),
                    )),
                ));
                state.lockstep.push(lock);
                let path = wal_dir.join(format!("{t}.log"));
                state.wal.push(
                    WalWriter::create(&path, 0, SyncPolicy::Always).expect("create traced WAL"),
                );
            }
            state
        })
        .collect()
}

/// The traced run: replay a fixed script untraced, then again with every
/// layer call as a span; check both lanes agree bit for bit.
pub fn run_traced(args: &RunArgs) -> Outcome {
    run_traced_shape(args, SHAPE)
}

pub fn run_traced_shape(args: &RunArgs, shape: Shape) -> Outcome {
    let stop = Stop::Releases(shape.traced_releases);
    let (plain, _) = Setup::build(shape, args.seed, "serve-untraced", None);
    let (plain_outs, _) = run_clients(&plain, stop, None);
    let _ = std::fs::remove_dir_all(&plain.dir);
    drop(plain);

    let mut tracer = Tracer::new(Instant::now());
    let (setup, _) = Setup::build(shape, args.seed, "serve-traced", Some(&mut tracer));
    let wal_dir = fresh_dir("serve-traced-wal");
    let states = trace_states(&setup, &mut tracer, &wal_dir);
    let (outs, _) = run_clients(&setup, stop, Some(states));
    let stats = setup.hub.memory_stats();
    let versions: Vec<(usize, u64)> = outs
        .iter()
        .flat_map(|o| o.versions.iter().copied())
        .collect();
    let gate = verify_final(&setup, &versions);
    let (_, replayed, reopen_mismatches) = reopen(setup, 1);
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut lane_mismatches = 0u64;
    let (mut dirty, mut groups) = (0u64, 0u64);
    let mut spans = std::mem::take(&mut tracer.spans);
    for (a, b) in plain_outs.iter().zip(outs) {
        lane_mismatches += u64::from(a.digests != b.digests);
        let ts = b.trace.expect("traced client state");
        lane_mismatches += ts.mismatches;
        dirty += ts.dirty;
        groups += ts.groups;
        spans.extend(ts.tracer.spans);
    }
    let untraced_ops: Vec<f64> = plain_outs
        .iter()
        .flat_map(|o| o.hub_op_ms.iter().copied())
        .collect();
    let ops = untraced_ops.len() as u64;
    let mismatches = lane_mismatches + gate + reopen_mismatches;

    let mut totals = LayerTotals::new(spans);
    totals.dirty = Ratio::new(dirty, groups);
    totals.intern = Ratio::new(stats.intern_hits, stats.intern_hits + stats.intern_misses);
    totals.evictions = stats.evictions;
    totals.rehydrations = stats.rehydrations;
    totals.hub_ops = ops;
    totals.warm_ops = ops;
    totals.records_replayed = replayed;
    totals.untraced_op_ms = untraced_ops;
    let mut report = Report::default();
    context(&mut report, args, &shape, ops);
    report.count("releases_per_tenant", shape.traced_releases as u64);
    report.count("correctness_mismatches", mismatches);
    let metrics = layers::finish(&totals, &mut report, "serve_durable");
    Outcome {
        correct: mismatches == 0,
        attempted: ops,
        failed: mismatches,
        metrics,
        report,
    }
}
