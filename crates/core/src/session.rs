//! Retained publishing sessions: the incremental republication engine.
//!
//! [`Publisher::publish`] is one-shot — it re-partitions all `n` rows and
//! forgets everything. A [`PublishSession`] keeps the engine state alive
//! between publications of an **evolving** table:
//!
//! * the instantiated privacy requirement (fixed when the session opens —
//!   the publisher's threat model holds still while the data moves);
//! * the retained strategy state (Mondrian's
//!   [`PartitionTree`](bgkanon_anon::PartitionTree), a bucket list, a
//!   generalization-lattice frontier — one [`Planted`] value whatever the
//!   publisher's [`Algorithm`](crate::Algorithm)), so a [`Delta`] reworks
//!   only what it dirties through [`Planted::refresh`];
//! * per-adversary [`AuditSession`]s whose group-risk caches are
//!   invalidated by leaf stamp — an audit after a delta recomputes Ω only
//!   for the groups the delta touched;
//! * session-built adversary models
//!   ([`audit_against`](PublishSession::audit_against)) that **follow the
//!   evolving table** through the `Adv(b′)` version chain the
//!   [`SessionHub`](crate::SessionHub) runs too: each `b′` keeps one audit
//!   cache, tagged with the version it was built for, and the first audit
//!   of a newer version refreshes that entry's model to the current table
//!   ([`PriorEstimator::refresh_to`] — only the kernel neighborhood of QI
//!   points whose fold changed is recomputed, however many applies went by
//!   unaudited) and carries its memo over ([`AuditSession::successor`]).
//!   The adversary is never silently frozen at the table the session
//!   opened on, and an apply that is never audited pays nothing for it.
//!   Externally supplied auditors
//!   ([`audit_with`](PublishSession::audit_with)) embody the caller's
//!   chosen prior model and are left untouched (the paper's Fig. 1 "reuse
//!   the prior across releases" accounting).
//!
//! The correctness bar, enforced by `tests/tests/incremental.rs`: after
//! **any** sequence of deltas, [`PublishSession::snapshot`] is bit-identical
//! to a from-scratch [`Publisher::publish`] of the final table, and
//! [`PublishSession::audit_with`] is bit-identical to a fresh audit of that
//! from-scratch publication.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon_anon::{AnonymizedTable, Planted};
use bgkanon_data::{Delta, Parallelism, Schema, Table};
use bgkanon_knowledge::{Adversary, Bandwidth, FoldedTable, PriorEstimator, PriorModel};
use bgkanon_privacy::{AuditReport, AuditSession, Auditor, PrivacyRequirement};
use bgkanon_stats::SmoothedJs;

use crate::publisher::{whole_table_satisfies, PublishError, PublishOutcome, Publisher};

/// Errors from [`PublishSession::apply`] and the
/// [`SessionHub`](crate::SessionHub) operations built on top of it.
///
/// `SessionError` is a [`std::error::Error`], so it composes with `?` and
/// `Box<dyn Error>` pipelines and exposes its cause chain:
///
/// ```
/// use bgkanon::SessionError;
///
/// let err = SessionError::UnknownTenant("acme".into());
/// assert!(err.to_string().contains("acme"));
/// let boxed: Box<dyn std::error::Error> = Box::new(err);
/// assert!(boxed.source().is_none());
/// ```
#[derive(Debug, Clone)]
pub enum SessionError {
    /// The delta could not be applied to the table (bad row index, invalid
    /// inserted row, or the table would become empty).
    Data(bgkanon_data::DataError),
    /// The post-delta table violates the session's requirement as a whole —
    /// no publication of it exists under this engine.
    Publish(PublishError),
    /// No tenant with this id is registered in the hub.
    UnknownTenant(String),
    /// A tenant with this id is already registered in the hub.
    TenantExists(String),
    /// The durability layer failed: a WAL append or checkpoint write did
    /// not reach stable storage, or a durable open hit an unusable data
    /// directory. The message carries the cause (the variant keeps a
    /// `String` so `SessionError` stays `Clone`).
    Durability(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Data(e) => write!(f, "delta rejected: {e}"),
            SessionError::Publish(e) => write!(f, "{e}"),
            SessionError::UnknownTenant(t) => write!(f, "no tenant `{t}` is registered"),
            SessionError::TenantExists(t) => write!(f, "tenant `{t}` is already registered"),
            SessionError::Durability(reason) => write!(f, "durability failure: {reason}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Data(e) => Some(e),
            SessionError::Publish(e) => Some(e),
            SessionError::UnknownTenant(_)
            | SessionError::TenantExists(_)
            | SessionError::Durability(_) => None,
        }
    }
}

impl From<bgkanon_data::DataError> for SessionError {
    fn from(e: bgkanon_data::DataError) -> Self {
        SessionError::Data(e)
    }
}

impl From<PublishError> for SessionError {
    fn from(e: PublishError) -> Self {
        SessionError::Publish(e)
    }
}

/// Key of one retained audit configuration — of a session's audit caches
/// and of a hub tenant's reader caches alike. Prior identities (and
/// therefore every cached risk) are tied to a concrete adversary model
/// instance, so the cache is keyed by the instances in play, not by their
/// parameters.
/// (Addresses are stored as `usize`, not raw pointers: the key is only ever
/// compared, and a raw-pointer field would make the whole session `!Send` —
/// it has to live behind a hub tenant's mutex.)
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum AuditKey {
    /// Externally supplied auditor: adversary + measure instance addresses
    /// plus the exact-inference cutoff. Valid across versions — the
    /// caller's model is frozen by definition, so stamp hits replay across
    /// deltas (the Fig. 1 "reuse the prior across releases" accounting).
    External(usize, usize, usize),
    /// Self-built `Adv(b')`, keyed by bandwidth bits **and the version it
    /// was built for**: the adversary the current table implies changes
    /// with the table, so an audit of a newer version never replays this
    /// entry's stamps. At most one entry per bandwidth is kept: after an
    /// apply, the entry of the superseded version stays as the **chain
    /// base** that the next audited version's entry is refreshed from.
    Bandwidth(u64, u64),
}

impl AuditKey {
    /// The key of an externally supplied auditor.
    pub(crate) fn external(auditor: &Auditor) -> Self {
        AuditKey::External(
            Arc::as_ptr(auditor.adversary()) as usize,
            Arc::as_ptr(auditor.measure()) as *const () as usize,
            auditor.exact_below(),
        )
    }

    /// True when an entry under `self` is a chain base for `next`: the
    /// same bandwidth, built for an earlier version.
    pub(crate) fn chains_into(self, next: AuditKey) -> bool {
        matches!(
            (self, next),
            (AuditKey::Bandwidth(b, v), AuditKey::Bandwidth(nb, nv)) if b == nb && v < nv
        )
    }
}

/// `Adv(b')`'s prior model for the table `fold` was taken from — the one
/// refresh-or-estimate step of the `Adv(b′)` version chain, shared by
/// [`PublishSession::audit_against`] and the hub's `audit_against`.
/// `previous` (the same bandwidth's model for an earlier version) is
/// refreshed to `fold` ([`PriorEstimator::refresh_to`]) — in place via
/// [`Arc::make_mut`], which clones only while another holder still shares
/// it; without a refreshable `previous` the model is estimated from
/// scratch. Bit-identical either way.
pub(crate) fn chain_prior(
    schema: &Arc<Schema>,
    bandwidth: &Bandwidth,
    fold: FoldedTable,
    previous: Option<Arc<PriorModel>>,
    parallelism: Parallelism,
) -> Arc<PriorModel> {
    let estimator = PriorEstimator::new(Arc::clone(schema), bandwidth.clone());
    match previous {
        Some(mut model) if model.is_refreshable() => {
            estimator.refresh_to(Arc::make_mut(&mut model), fold, parallelism);
            model
        }
        _ => Arc::new(estimator.estimate_folded(fold, parallelism)),
    }
}

/// The `Adv(b')` adversary over `model`.
pub(crate) fn adversary_b_prime(bandwidth: &Bandwidth, model: Arc<PriorModel>) -> Arc<Adversary> {
    Arc::new(Adversary::from_model(
        &format!("Adv({bandwidth})"),
        bandwidth.clone(),
        model,
    ))
}

/// One retained audit configuration and its risk caches.
struct AuditCache {
    key: AuditKey,
    session: AuditSession,
}

/// A retained publish → audit pipeline over an evolving table.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon::data::DeltaBuilder;
/// use bgkanon::Publisher;
///
/// let table = bgkanon::data::adult::generate(300, 7);
/// let mut session = Publisher::new().k_anonymity(5).open(&table)?;
/// assert_eq!(session.len(), 300);
///
/// // Evolve the table: drop two rows, admit one.
/// let mut delta = DeltaBuilder::new(Arc::clone(table.schema()));
/// delta.delete(17).delete(230);
/// delta.insert_codes(&table.qi(3), table.sensitive_value(3))?;
/// let outcome = session.apply(&delta.build())?;
/// assert_eq!(outcome.anonymized.len(), 299);
///
/// // The session output is bit-identical to republishing from scratch.
/// let fresh = Publisher::new().k_anonymity(5).publish(session.table())?;
/// assert_eq!(
///     outcome.anonymized.group_count(),
///     fresh.anonymized.group_count(),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PublishSession {
    requirement: Arc<dyn PrivacyRequirement>,
    requirement_name: String,
    parallelism: Parallelism,
    table: Table,
    planted: Planted,
    anonymized: AnonymizedTable,
    stamps: Vec<u64>,
    audits: Vec<AuditCache>,
    last_elapsed: Duration,
    deltas_applied: usize,
}

impl PublishSession {
    /// Open a session: instantiate `publisher`'s requirements against
    /// `table` (they stay fixed for the session's lifetime), plant the
    /// strategy state and derive the first publication.
    pub fn open(table: &Table, publisher: &Publisher) -> Result<Self, PublishError> {
        let requirement = publisher.instantiate(table)?;
        if !whole_table_satisfies(table, &requirement) {
            return Err(PublishError::Unsatisfiable {
                requirement: requirement.name(),
            });
        }
        let parallelism = publisher.parallelism_knob();
        let strategy = publisher.strategy(&requirement)?;
        let started = Instant::now(); // bgk-allow: R3 telemetry only: elapsed is reported, never branches
        let mut planted = strategy.plant_with(table, parallelism)?;
        let last_elapsed = started.elapsed();
        // Amortize the refresh engine's derived caches (e.g. Mondrian's
        // per-node histograms) up front so the first delta runs at
        // steady-state speed.
        planted.warm(table);
        let (anonymized, stamps) = planted.snapshot(table);
        Ok(PublishSession {
            requirement_name: requirement.name(),
            requirement,
            parallelism,
            table: table.clone(),
            planted,
            anonymized,
            stamps,
            audits: Vec::new(),
            last_elapsed,
            deltas_applied: 0,
        })
    }

    /// Rebuild a session from recovered durable state ([`crate::recover`]):
    /// a checkpointed `table` + `planted` state pair and the requirement
    /// re-instantiated from the genesis table. The state is adopted as-is —
    /// no re-partitioning — so the resumed publication is bit-identical to
    /// the one the checkpoint captured; [`Planted::warm`] only rebuilds
    /// derived refresh caches.
    ///
    /// Audit caches start empty: the first `audit_against` of each `b′`
    /// estimates its model afresh, bit-identically.
    pub(crate) fn resume(
        table: Table,
        requirement: Arc<dyn PrivacyRequirement>,
        parallelism: Parallelism,
        mut planted: Planted,
        deltas_applied: usize,
    ) -> Self {
        planted.warm(&table);
        let (anonymized, stamps) = planted.snapshot(&table);
        PublishSession {
            requirement_name: requirement.name(),
            requirement,
            parallelism,
            table,
            planted,
            anonymized,
            stamps,
            audits: Vec::new(),
            last_elapsed: Duration::ZERO,
            deltas_applied,
        }
    }

    /// Apply one delta: evolve the table, route the changes through the
    /// retained strategy state (reworking only what the delta dirties), and
    /// return the new publication. On error the session is unchanged and
    /// remains usable.
    pub fn apply(&mut self, delta: &Delta) -> Result<PublishOutcome, SessionError> {
        if delta.is_empty() {
            // Identity delta: the current publication is already the answer.
            return Ok(self.snapshot());
        }
        let t0 = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        let next = self.table.apply_delta(delta)?;
        let t1 = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        if !whole_table_satisfies(&next, &self.requirement) {
            return Err(PublishError::Unsatisfiable {
                requirement: self.requirement.name(),
            }
            .into());
        }
        let t1b = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        let started = Instant::now(); // bgk-allow: R3 telemetry only: elapsed is reported, never branches
                                      // The strategy refresh is the last fallible step; its contract
                                      // leaves the state untouched on error, so a rejected delta
                                      // (e.g. bucketization losing ℓ-eligibility) leaves the whole
                                      // session unchanged.
        self.planted
            .refresh(&self.table, &next, delta.deletes())
            .map_err(PublishError::from)?;
        self.last_elapsed = started.elapsed();
        let t2 = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        let (anonymized, stamps) = self.planted.snapshot(&next);
        let t3 = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        self.table = next;
        self.anonymized = anonymized;
        self.stamps = stamps;
        self.deltas_applied += 1;
        let out = Ok(self.snapshot());
        let t4 = Instant::now(); // bgk-allow: R3 BGK_PROFILE timer, output-neutral
        if std::env::var("BGK_PROFILE").is_ok() {
            eprintln!(
                "apply: delta={:?} check={:?} refresh={:?} snapshot={:?} clone={:?}",
                t1 - t0,
                t1b - t1,
                t2 - t1b,
                t3 - t2,
                t4 - t3
            );
        }
        out
    }

    /// The current publication, as a [`PublishOutcome`] (the same shape
    /// [`Publisher::publish`] returns); `elapsed` is the engine time of the
    /// last plant or delta-apply.
    pub fn snapshot(&self) -> PublishOutcome {
        PublishOutcome {
            anonymized: self.anonymized.clone(),
            requirement_name: self.requirement_name.clone(),
            elapsed: self.last_elapsed,
            parallelism: self.parallelism,
        }
    }

    /// The session's current table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The current published partition.
    pub fn anonymized(&self) -> &AnonymizedTable {
        &self.anonymized
    }

    /// The retained strategy state, paired with its algorithm (what a
    /// checkpoint tags and persists).
    pub(crate) fn planted(&self) -> &Planted {
        &self.planted
    }

    /// The per-group stamps of the current publication, aligned with
    /// [`anonymized()`](Self::anonymized)`.groups()`. A group's stamp
    /// changes whenever its membership changes and never collides between
    /// distinct memberships, which makes the stamps valid cache tokens for
    /// [`AuditSession::report_groups`] /
    /// [`SharedAuditSession`](bgkanon_privacy::SharedAuditSession) — across
    /// deltas, only dirtied groups miss the cache.
    pub fn leaf_stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Name of the requirement fixed at open time.
    pub fn requirement_name(&self) -> &str {
        &self.requirement_name
    }

    /// Rows in the current table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the current table has no rows (never — sessions reject
    /// deltas that would empty the table).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Groups in the current publication.
    pub fn group_count(&self) -> usize {
        self.anonymized.group_count()
    }

    /// Number of deltas applied since the session opened.
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Audit the current publication with `auditor`, through this session's
    /// retained audit cache: groups untouched since the last audit with the
    /// same auditor replay their risks, only dirty groups recompute Ω.
    /// Bit-identical to a fresh
    /// [`Auditor::report`](bgkanon_privacy::Auditor::report) on the current
    /// table and groups.
    ///
    /// The cache is keyed by the auditor's model *instances* (its
    /// adversary/measure `Arc`s), so pass the same `Auditor` — or clones
    /// sharing its `Arc`s — across calls to actually hit it; an auditor
    /// constructed fresh per call audits at cold-cache cost. The session
    /// retains at most [`MAX_AUDIT_CACHES`](Self::MAX_AUDIT_CACHES)
    /// configurations, evicting the least recently used.
    pub fn audit_with(&mut self, auditor: &Auditor, t: f64) -> AuditReport {
        self.audit_keyed(AuditKey::external(auditor), t, |_, _| {
            AuditSession::new(auditor.clone())
        })
    }

    /// Audit against the adversary `Adv(b')` with threshold `t`, using the
    /// paper's smoothed-JS distance — the session counterpart of
    /// [`PublishOutcome::audit_against`]. The adversary's prior model is
    /// that of **the current table**, cached per `(b', version)`: audits
    /// between applies replay it, and the first audit after any number of
    /// applies refreshes the previous entry's model to the current table
    /// and carries its audit memo over (the `Adv(b′)` version chain, the
    /// same one [`SessionHub::audit_against`](crate::SessionHub::audit_against)
    /// runs) — bit-identical to opening a fresh session on the current
    /// table, at a fraction of the re-estimation cost.
    ///
    /// # Panics
    ///
    /// Panics when `b_prime` is not a positive, finite bandwidth.
    pub fn audit_against(&mut self, b_prime: f64, t: f64) -> AuditReport {
        let key = AuditKey::Bandwidth(b_prime.to_bits(), self.deltas_applied as u64);
        self.audit_keyed(key, t, |session, base| {
            let bandwidth =
                Bandwidth::uniform(b_prime, session.table.qi_count()).expect("positive bandwidth");
            let (schema, parallelism) = (session.table.schema(), session.parallelism);
            let fold = FoldedTable::new(&session.table);
            let Some(base) = base else {
                let model = chain_prior(schema, &bandwidth, fold, None, parallelism);
                let measure = Arc::new(SmoothedJs::paper_default(schema.sensitive_distance()));
                return AuditSession::new(Auditor::new(
                    adversary_b_prime(&bandwidth, model),
                    measure,
                ));
            };
            base.successor(|retired| {
                let measure = Arc::clone(retired.measure());
                let previous = retired.adversary().prior_model().cloned();
                // Release the retired adversary's hold on the model, so the
                // refresh mutates it in place.
                drop(retired);
                let model = chain_prior(schema, &bandwidth, fold, previous, parallelism);
                Auditor::new(adversary_b_prime(&bandwidth, model), measure)
            })
        })
    }

    /// Most audit configurations retained at once — by a session, and by
    /// each hub tenant's reader caches; beyond this the least recently used
    /// cache (and its memos) is dropped, bounding memory for callers that
    /// construct a fresh auditor per call.
    pub const MAX_AUDIT_CACHES: usize = 8;

    /// Number of distinct audit configurations this session caches.
    pub fn audit_cache_count(&self) -> usize {
        self.audits.len()
    }

    /// Heap bytes this session holds resident: the working table, the
    /// strategy state, the current publication, group stamps, and every
    /// retained audit configuration (risk caches plus, for session-built
    /// `Adv(b')` adversaries, the prior model — it is owned here, so it is
    /// charged here). The serving hub rolls this into per-tenant gauges;
    /// shared `Arc` payloads are charged to every holder, making it a
    /// deterministic RSS proxy rather than an allocator-exact figure.
    pub fn bytes_accounted(&self) -> usize {
        let audits: usize = self
            .audits
            .iter()
            .map(|c| {
                let model = match c.key {
                    AuditKey::Bandwidth(..) => c.session.auditor().adversary().prior_model(),
                    AuditKey::External(..) => None,
                };
                c.session.bytes_accounted() + model.map_or(0, |m| m.bytes_accounted() + 64)
            })
            .sum();
        self.table.bytes_accounted()
            + self.planted.bytes_accounted()
            + self.anonymized.bytes_accounted()
            + self.stamps.len() * 8
            + audits
    }

    /// Drop every retained audit configuration — risk caches and
    /// session-built priors alike. The demotion hook behind the serving
    /// hub's memory budget: every cache is rebuild-on-miss (an `Adv(b')`
    /// model re-estimates from the current table), so subsequent audits
    /// are bit-identical, just cold.
    pub fn evict_audit_caches(&mut self) {
        self.audits.clear();
    }

    /// Audit the current publication through the cache under `key`, making
    /// it most recently used. On a miss `build` makes the cache from the
    /// session and the entry's chain base (see [`AuditKey::chains_into`]),
    /// which leaves the cache; the least recently used entry is dropped at
    /// [`MAX_AUDIT_CACHES`](Self::MAX_AUDIT_CACHES).
    fn audit_keyed(
        &mut self,
        key: AuditKey,
        t: f64,
        build: impl FnOnce(&Self, Option<AuditSession>) -> AuditSession,
    ) -> AuditReport {
        let mut entry = match self.audits.iter().position(|c| c.key == key) {
            Some(idx) => self.audits.remove(idx),
            None => {
                let base = self
                    .audits
                    .iter()
                    .position(|c| c.key.chains_into(key))
                    .map(|idx| self.audits.remove(idx).session);
                if self.audits.len() >= Self::MAX_AUDIT_CACHES {
                    // Least-recently-used-first order: the front is the
                    // eviction victim.
                    self.audits.remove(0);
                }
                AuditCache {
                    key,
                    session: build(self, base),
                }
            }
        };
        let groups: Vec<&[usize]> = self
            .anonymized
            .groups()
            .iter()
            .map(|g| g.rows.as_slice())
            .collect();
        let report = entry
            .session
            .report_groups(&self.table, &groups, Some(&self.stamps), t);
        self.audits.push(entry);
        report
    }
}

impl fmt::Debug for PublishSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishSession")
            .field("strategy", &self.planted.algorithm().name())
            .field("requirement", &self.requirement_name)
            .field("rows", &self.table.len())
            .field("groups", &self.anonymized.group_count())
            .field("deltas_applied", &self.deltas_applied)
            .field("audit_caches", &self.audits.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy, DeltaBuilder};

    fn delta(table: &Table, deletes: &[usize], inserts: usize, donor_seed: u64) -> Delta {
        let donors = adult::generate(inserts.max(1), donor_seed);
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for &r in deletes {
            b.delete(r);
        }
        for r in 0..inserts {
            b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn open_matches_publish() {
        let t = adult::generate(400, 3);
        let publisher = Publisher::new().k_anonymity(5);
        let outcome = publisher.publish(&t).unwrap();
        let session = publisher.open(&t).unwrap();
        assert_eq!(outcome.anonymized.group_count(), session.group_count());
        for (a, b) in outcome
            .anonymized
            .groups()
            .iter()
            .zip(session.anonymized().groups())
        {
            assert_eq!(a.rows, b.rows);
        }
        assert_eq!(session.requirement_name(), outcome.requirement_name);
        assert_eq!(session.deltas_applied(), 0);
        assert!(!session.is_empty());
    }

    #[test]
    fn apply_matches_from_scratch_publish() {
        let t = adult::generate(500, 9);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let d = delta(&t, &[3, 77, 141, 298], 10, 42);
        let outcome = session.apply(&d).unwrap();
        let fresh = publisher.publish(session.table()).unwrap();
        assert_eq!(
            outcome.anonymized.group_count(),
            fresh.anonymized.group_count()
        );
        for (a, b) in outcome
            .anonymized
            .groups()
            .iter()
            .zip(fresh.anonymized.groups())
        {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.ranges, b.ranges);
            assert_eq!(a.sensitive_counts, b.sensitive_counts);
        }
        assert_eq!(session.deltas_applied(), 1);
    }

    #[test]
    fn empty_delta_is_identity() {
        let t = adult::generate(200, 4);
        let mut session = Publisher::new().k_anonymity(4).open(&t).unwrap();
        let before = session.snapshot();
        let outcome = session
            .apply(&Delta::empty(Arc::clone(t.schema())))
            .unwrap();
        assert_eq!(
            before.anonymized.group_count(),
            outcome.anonymized.group_count()
        );
        for (a, b) in before
            .anonymized
            .groups()
            .iter()
            .zip(outcome.anonymized.groups())
        {
            assert_eq!(a.rows, b.rows);
        }
    }

    #[test]
    fn delete_all_is_rejected_and_session_survives() {
        let t = adult::generate(120, 6);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        for r in 0..t.len() {
            b.delete(r);
        }
        let err = session.apply(&b.build()).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Data(bgkanon_data::DataError::EmptyTable)
        ));
        assert!(err.to_string().contains("delta rejected"));
        // The session is untouched and keeps working.
        assert_eq!(session.len(), 120);
        let d = delta(&t, &[0], 0, 1);
        assert!(session.apply(&d).is_ok());
    }

    #[test]
    fn unsatisfiable_delta_is_rejected_before_mutation() {
        // Shrink the table below k: the whole table stops satisfying the
        // requirement, which must surface as Unsatisfiable and leave the
        // session intact.
        let t = adult::generate(30, 6);
        let mut session = Publisher::new().k_anonymity(25).open(&t).unwrap();
        let d = delta(&t, &(0..10).collect::<Vec<_>>(), 0, 1);
        let err = session.apply(&d).unwrap_err();
        assert!(matches!(err, SessionError::Publish(_)));
        assert_eq!(session.len(), 30);
    }

    #[test]
    fn out_of_range_delete_is_rejected() {
        let t = adult::generate(50, 2);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(50);
        let err = session.apply(&b.build()).unwrap_err();
        assert!(matches!(err, SessionError::Data(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn session_audit_matches_fresh_audit() {
        let t = adult::generate(300, 12);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let adversary = Arc::new(Adversary::kernel(
            &t,
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        ));
        let measure: Arc<dyn bgkanon_stats::BeliefDistance> =
            Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let auditor = Auditor::new(adversary, measure);

        let first = session.audit_with(&auditor, 0.2);
        let d = delta(&t, &[5, 42], 4, 77);
        session.apply(&d).unwrap();
        let incremental = session.audit_with(&auditor, 0.2);
        assert_eq!(session.audit_cache_count(), 1);

        let fresh = publisher.publish(session.table()).unwrap();
        let reference = fresh.audit_with(session.table(), &auditor, 0.2);
        assert_eq!(
            incremental.worst_case.to_bits(),
            reference.worst_case.to_bits()
        );
        assert_eq!(incremental.mean.to_bits(), reference.mean.to_bits());
        assert_eq!(incremental.vulnerable, reference.vulnerable);
        for (a, b) in incremental.risks.iter().zip(&reference.risks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the pre-delta report was a valid report too.
        assert!(first.worst_case >= first.mean);
    }

    #[test]
    fn audit_against_reuses_the_cached_adversary() {
        let t = toy::hospital_table();
        let mut session = Publisher::new()
            .k_anonymity(3)
            .bt_privacy(0.3, 0.25)
            .open(&t)
            .unwrap();
        let a = session.audit_against(0.3, 0.25);
        assert!(a.worst_case <= 0.25 + 1e-9);
        let b = session.audit_against(0.3, 0.25);
        assert_eq!(a.worst_case.to_bits(), b.worst_case.to_bits());
        let _other = session.audit_against(0.5, 0.25);
        assert_eq!(session.audit_cache_count(), 2);
    }

    #[test]
    fn audit_against_tracks_the_evolving_table() {
        // The staleness fix: after deltas, audit_against must measure the
        // adversary the *current* table implies — bit-identical to a fresh
        // session opened on that table — not the model frozen at open,
        // however many applies went by unaudited in between.
        let t = adult::generate(300, 12);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let before = session.audit_against(0.3, 0.2);
        assert!(before.worst_case >= before.mean);

        // Audit after applies 1, 2, 4 and 7: skipped versions in between.
        let audited = [1usize, 2, 4, 7];
        for step in 1..=7usize {
            let table = session.table().clone();
            let deletes = [5 + step, 42 + step, 77 + 2 * step, 130 + 3 * step];
            session
                .apply(&delta(&table, &deletes, 5, 99 + step as u64))
                .unwrap();
            if !audited.contains(&step) {
                continue;
            }
            let tracked = session.audit_against(0.3, 0.2);
            let mut fresh = publisher.open(session.table()).unwrap();
            let reference = fresh.audit_against(0.3, 0.2);
            assert_eq!(
                tracked.worst_case.to_bits(),
                reference.worst_case.to_bits(),
                "step {step}"
            );
            assert_eq!(tracked.mean.to_bits(), reference.mean.to_bits());
            assert_eq!(tracked.vulnerable, reference.vulnerable);
            assert_eq!(tracked.risks.len(), reference.risks.len());
            for (a, b) in tracked.risks.iter().zip(&reference.risks) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}");
            }
            // The chained entry is still a single cache slot.
            assert_eq!(session.audit_cache_count(), 1);
        }
    }

    #[test]
    fn external_auditor_stays_caller_frozen() {
        // audit_with uses the caller's adversary as supplied — the Fig. 1
        // accounting where one estimated prior is reused across releases.
        let t = adult::generate(200, 5);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let adversary = Arc::new(Adversary::kernel(
            &t,
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        ));
        let measure: Arc<dyn bgkanon_stats::BeliefDistance> =
            Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let auditor = Auditor::new(adversary, measure);
        session.apply(&delta(&t, &[1, 2], 2, 7)).unwrap();
        let incremental = session.audit_with(&auditor, 0.2);
        let fresh = publisher.publish(session.table()).unwrap();
        let reference = fresh.audit_with(session.table(), &auditor, 0.2);
        for (a, b) in incremental.risks.iter().zip(&reference.risks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn audit_cache_is_bounded_lru() {
        let t = adult::generate(80, 3);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        // Distinct bandwidths force distinct cache entries.
        for i in 0..(PublishSession::MAX_AUDIT_CACHES + 3) {
            let b = 0.2 + 0.01 * i as f64;
            let _ = session.audit_against(b, 0.2);
        }
        assert_eq!(
            session.audit_cache_count(),
            PublishSession::MAX_AUDIT_CACHES
        );
        // The most recent entry survived and replays bit-identically.
        let b_last = 0.2 + 0.01 * (PublishSession::MAX_AUDIT_CACHES + 2) as f64;
        let a = session.audit_against(b_last, 0.2);
        let b = session.audit_against(b_last, 0.2);
        assert_eq!(a.worst_case.to_bits(), b.worst_case.to_bits());
        assert_eq!(
            session.audit_cache_count(),
            PublishSession::MAX_AUDIT_CACHES
        );
    }

    #[test]
    fn debug_formats() {
        let t = adult::generate(60, 1);
        let session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let s = format!("{session:?}");
        assert!(s.contains("PublishSession"));
        assert!(s.contains("mondrian"));
        assert!(s.contains("3-anonymity"));
    }

    #[test]
    fn concrete_strategy_sessions_match_their_publishers() {
        use crate::publisher::Algorithm;
        let t = adult::generate(250, 21);
        let d = delta(&t, &[3, 40, 99], 5, 7);
        for algorithm in [
            Algorithm::Mondrian,
            Algorithm::Bucketize,
            Algorithm::FullDomain,
        ] {
            let publisher = Publisher::new().k_anonymity(3).algorithm(algorithm);
            let mut session = publisher.open(&t).unwrap();
            session.apply(&d).unwrap();
            let fresh = publisher.publish(session.table()).unwrap();
            assert_eq!(
                session.anonymized().group_count(),
                fresh.anonymized.group_count()
            );
            for (a, b) in session
                .anonymized()
                .groups()
                .iter()
                .zip(fresh.anonymized.groups())
            {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.ranges, b.ranges);
                assert_eq!(a.sensitive_counts, b.sensitive_counts);
            }
        }
    }

    #[test]
    fn infeasible_strategy_refresh_leaves_the_session_unchanged() {
        use crate::publisher::Algorithm;
        let t = adult::generate(60, 22);
        let publisher = Publisher::new()
            .k_anonymity(3)
            .algorithm(Algorithm::Bucketize);
        let mut session = publisher.open(&t).unwrap();
        let before: Vec<Vec<usize>> = session
            .anonymized()
            .groups()
            .iter()
            .map(|g| g.rows.clone())
            .collect();
        // Flood the table with one sensitive value: 3-anonymity still holds
        // on the whole table (the pre-check passes), but no 3-diverse
        // bucket partition exists any more — the strategy refresh is what
        // rejects the delta.
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        let v = t.sensitive_value(0);
        for _ in 0..(2 * t.len()) {
            b.insert_codes(&t.qi(0), v).unwrap();
        }
        let err = session.apply(&b.build()).unwrap_err();
        assert!(
            matches!(err, SessionError::Publish(PublishError::Infeasible { .. })),
            "{err}"
        );
        assert_eq!(session.len(), 60);
        assert_eq!(session.deltas_applied(), 0);
        let after: Vec<Vec<usize>> = session
            .anonymized()
            .groups()
            .iter()
            .map(|g| g.rows.clone())
            .collect();
        assert_eq!(before, after);
        // The session survives and keeps accepting feasible deltas.
        session.apply(&delta(&t, &[0], 0, 5)).unwrap();
    }
}
