//! Pieces shared by the workloads: run context, digests, seeded delta
//! generation, process memory, and the lockstep layer replay the traced
//! lanes run next to the hub.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bgkanon::anon::{AnonymizedTable, Mondrian, PartitionTree};
use bgkanon::data::{Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth, FoldedTable, PriorEstimator};
use bgkanon::privacy::{AuditReport, Auditor, KAnonymity, SharedAuditSession};
use bgkanon::stats::SmoothedJs;
use bgkanon::{PublishSession, Publisher};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::report::Report;
use crate::trace::Tracer;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics for the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else, printed before the result line.
    pub report: Report,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch directory for hub data and span dumps, inside the benchmark's
/// own directory (ignored by git).
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A fresh, empty directory under [`work_dir`], unique to this process
/// and call.
pub fn fresh_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = work_dir().join(format!("{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Process high-water resident set (`VmHWM`), in MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// splitmix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Digest of a publication: every group's rows, ranges and histogram.
pub fn digest_groups(anonymized: &AnonymizedTable) -> u64 {
    let mut h = fold(FNV_OFFSET, anonymized.group_count() as u64);
    for g in anonymized.groups() {
        h = fold(h, g.rows.len() as u64);
        for &r in &g.rows {
            h = fold(h, r as u64);
        }
        for q in &g.ranges {
            h = fold(h, (u64::from(q.min) << 32) | u64::from(q.max));
        }
        for &c in &g.sensitive_counts {
            h = fold(h, u64::from(c));
        }
    }
    h
}

/// Digest of an audit report, bit-exact on every risk.
pub fn digest_report(report: &AuditReport) -> u64 {
    let mut h = fold(FNV_OFFSET, report.worst_case.to_bits());
    h = fold(h, report.mean.to_bits());
    h = fold(h, report.vulnerable as u64);
    for r in &report.risks {
        h = fold(h, r.to_bits());
    }
    h
}

/// Digest of a table's contents, column by column.
pub fn digest_table(table: &Table) -> u64 {
    let mut h = fold(FNV_OFFSET, table.len() as u64);
    for attr in 0..table.qi_count() {
        let col = table.qi_col(attr);
        for row in 0..table.len() {
            h = fold(h, u64::from(col.get(row)));
        }
    }
    for &s in table.sensitive_col() {
        h = fold(h, u64::from(s));
    }
    h
}

/// Combine digests into one.
pub fn digest_all(parts: impl IntoIterator<Item = u64>) -> u64 {
    parts.into_iter().fold(FNV_OFFSET, fold)
}

/// A scattered replacement delta: `churn` distinct rows of a `len`-row
/// table deleted and `churn` rows of `donors` inserted, so the table keeps
/// its size. A pure function of `(seed, len)`, which lets every lane — and
/// the from-scratch replay — derive the identical delta.
pub fn scattered_delta(table: &Table, donors: &Table, churn: usize, seed: u64) -> Delta {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < churn {
        chosen.insert(rng.gen_range(0..table.len()));
    }
    for &row in &chosen {
        builder.delete(row);
    }
    for _ in 0..churn {
        let r = rng.gen_range(0..donors.len());
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donors share the schema");
    }
    builder.build()
}

/// The paper's smoothed-JS auditor against `Adv(b′)` estimated on `table`.
pub fn kernel_auditor(table: &Table, b_prime: f64) -> Auditor {
    let bandwidth = Bandwidth::uniform(b_prime, table.qi_count()).expect("positive bandwidth");
    let adversary = Arc::new(Adversary::kernel(table, bandwidth));
    Auditor::new(
        adversary,
        Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        )),
    )
}

/// Mondrian under k-anonymity — the strategy a `Publisher::k_anonymity(k)`
/// session runs.
pub fn mondrian(k: usize) -> Mondrian {
    Mondrian::new(Arc::new(KAnonymity::new(k)))
}

/// Groups of a publication as borrowed row slices.
pub fn group_slices(anonymized: &AnonymizedTable) -> Vec<&[usize]> {
    anonymized
        .groups()
        .iter()
        .map(|g| g.rows.as_slice())
        .collect()
}

/// One tenant's state replayed call-by-call next to the hub in the traced
/// lane: the table, the Mondrian tree and an in-memory session evolve in
/// lockstep with the hub's tenant, and each layer call is a span. Replays
/// read the lockstep state, never the hub, so the traced lane touches the
/// hub exactly as often (and in the same LRU order) as the untraced one.
pub struct Lockstep {
    pub table: Table,
    pub mondrian: Mondrian,
    pub tree: PartitionTree,
    pub session: PublishSession,
    /// The tree's current publication and leaf stamps.
    pub anonymized: AnonymizedTable,
    pub stamps: Vec<u64>,
    /// Reader caches mirroring the hub's: `(b′ bits or [`FROZEN`],
    /// version last read, session)`.
    pub readers: Vec<(u64, u64, Arc<SharedAuditSession>)>,
}

/// Reader-cache key of the caller-frozen auditor.
pub const FROZEN: u64 = u64::MAX;

impl Lockstep {
    /// Plant the replay state on a tenant's genesis table; the plant is
    /// the `anon.plant` span.
    pub fn open(table: &Table, k: usize, tracer: &mut Tracer, op: u64) -> Lockstep {
        let mondrian = mondrian(k);
        let mut tree = tracer.span("anon.plant", op, || {
            mondrian.plant_with(table, Parallelism::Auto)
        });
        mondrian.warm_stats(&mut tree, table);
        let (anonymized, stamps) = tree.snapshot(table);
        let session = Publisher::new()
            .k_anonymity(k)
            .open(table)
            .expect("genesis table satisfies the requirement");
        Lockstep {
            table: table.clone(),
            mondrian,
            tree,
            session,
            anonymized,
            stamps,
            readers: Vec::new(),
        }
    }

    /// Replay one apply as the hub runs it: the session apply, then the
    /// layer calls inside it (table evolve, tree refresh, snapshot).
    /// Returns the session's and the layer calls' publication digests and
    /// the count of groups with a new leaf stamp.
    pub fn apply(&mut self, delta: &Delta, tracer: &mut Tracer, op: u64) -> (u64, u64, u64) {
        let outcome = tracer.span("session.apply", op, || {
            self.session.apply(delta).expect("scripted delta applies")
        });
        let next = tracer.span("data.apply_delta", op, || {
            self.table
                .apply_delta(delta)
                .expect("scripted delta applies")
        });
        tracer.span("anon.refresh", op, || {
            self.mondrian
                .refresh(&mut self.tree, &self.table, &next, delta.deletes())
        });
        let (anonymized, stamps) = tracer.span("anon.snapshot", op, || self.tree.snapshot(&next));
        let prev: std::collections::BTreeSet<u64> = self.stamps.iter().copied().collect();
        let dirty = stamps.iter().filter(|s| !prev.contains(s)).count() as u64;
        self.table = next;
        self.anonymized = anonymized;
        self.stamps = stamps;
        (
            digest_groups(&outcome.anonymized),
            digest_groups(&self.anonymized),
            dirty,
        )
    }

    fn version(&self) -> u64 {
        self.session.deltas_applied() as u64
    }

    /// Replay a cold `audit_against(b′, t)` the way the hub serves a
    /// reader-cache miss: fold, estimate (a span only when the hub's intern
    /// table had no model — on a hit the hub reuses one, so the replay's
    /// estimate runs untraced), then a cold audit. Installs the replay's
    /// reader cache and returns the report.
    pub fn audit_cold(
        &mut self,
        b_prime: f64,
        t: f64,
        estimated: bool,
        tracer: &mut Tracer,
        op: u64,
    ) -> AuditReport {
        let table = &self.table;
        let bandwidth = Bandwidth::uniform(b_prime, table.qi_count()).expect("positive bandwidth");
        let fold = tracer.span("knowledge.fold", op, || FoldedTable::new(table));
        let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
        let model = if estimated {
            tracer.span("knowledge.estimate", op, || {
                estimator.estimate_folded(fold, Parallelism::Auto)
            })
        } else {
            estimator.estimate_folded(fold, Parallelism::Auto)
        };
        let adversary = Arc::new(Adversary::from_model(
            &format!("Adv({bandwidth})"),
            bandwidth,
            Arc::new(model),
        ));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        let auditor = Auditor::new(adversary, measure);
        let report = tracer.span("privacy.audit_cold", op, || {
            auditor.report_with(table, &self.anonymized.row_groups(), t, Parallelism::Auto)
        });
        // Prime the replay's reader cache as the hub's cold read primes
        // its own, so later cached reads replay the same work.
        let shared = Arc::new(SharedAuditSession::new(auditor));
        let _ = shared.report_groups(
            table,
            &group_slices(&self.anonymized),
            Some(&self.stamps),
            t,
        );
        let key = b_prime.to_bits();
        self.readers.retain(|(k, _, _)| *k != key);
        self.readers.push((key, self.version(), shared));
        report
    }

    /// Replay a read served from a retained reader cache (`key` is the
    /// `b′` bits or [`FROZEN`]). The first read of a version is the
    /// incremental audit; later ones replay every group from the cache.
    pub fn audit_cached(
        &mut self,
        key: u64,
        t: f64,
        tracer: &mut Tracer,
        op: u64,
    ) -> Option<AuditReport> {
        let version = self.version();
        let entry = self.readers.iter_mut().find(|(k, _, _)| *k == key)?;
        let name = if entry.1 != version {
            "privacy.audit_incremental"
        } else {
            "privacy.audit_cached"
        };
        entry.1 = version;
        let shared = Arc::clone(&entry.2);
        let groups = group_slices(&self.anonymized);
        Some(tracer.span(name, op, || {
            shared.report_groups(&self.table, &groups, Some(&self.stamps), t)
        }))
    }
}
