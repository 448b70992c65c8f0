//! Concurrency stress tests of the [`SessionHub`] serving layer: random
//! tenants, interleaved writer deltas and reader audits across threads —
//! and every observation must be **bit-identical** to a serial replay of
//! that tenant's delta sequence. Concurrency buys throughput, never drift.
//!
//! The stress test records, from inside the concurrent run, every reader's
//! `(tenant, version, risks)` observation. Afterwards a single thread
//! replays each tenant's delta sequence through a fresh serial session,
//! reconstructing the reference report at every version, and requires:
//!
//! * every final hub snapshot (groups, ranges, histograms, table rows)
//!   equals the from-scratch publication of the replayed final table;
//! * every concurrent audit observation, at whatever version the reader
//!   happened to catch, equals the reference audit of that version bit for
//!   bit.
//!
//! The `Adv(b′)` version-chain tests hold every `audit_against` report to a
//! fresh `Parallelism::Serial` audit of the same version — with audits
//! skipped on some versions, readers racing one version's miss, eviction
//! mid-chain, and tenants that share one interned model until one diverges.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;

/// The hub under test: the default, algorithm-dispatching strategy.
type SessionHub = bgkanon::SessionHub;

const SEED: u64 = 0xB6_2026;
const TENANTS: usize = 5;
const ROWS: usize = 220;
const DELTAS_PER_TENANT: usize = 6;
const READERS: usize = 3;
const K: usize = 4;
const B_PRIME: f64 = 0.3;
const THRESHOLD: f64 = 0.2;

/// A pseudo-random churn delta over `table` (deterministic in `rng`).
fn random_delta(table: &Table, rng: &mut SmallRng) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let deletes = rng.gen_range(1usize..6);
    for _ in 0..deletes {
        builder.delete(rng.gen_range(0..table.len()));
    }
    let inserts = rng.gen_range(1usize..6);
    let donors = adult::generate(inserts, rng.gen::<u64>());
    for r in 0..inserts {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    builder.build()
}

/// The per-tenant delta sequences, derived deterministically from the
/// evolving tables so the concurrent run and the serial replay see the
/// exact same sequence.
fn delta_seed(tenant: usize, step: usize) -> u64 {
    SEED ^ ((tenant as u64) << 32) ^ ((step as u64) << 8)
}

fn tenant_table(tenant: usize) -> Table {
    adult::generate(ROWS, SEED.wrapping_add(tenant as u64))
}

fn tenant_auditor(table: &Table) -> Auditor {
    let adversary = Arc::new(Adversary::kernel(
        table,
        Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
    ));
    let measure: Arc<dyn BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    Auditor::new(adversary, measure)
}

/// One concurrent audit observation: which tenant, which published version
/// the reader caught, and the full risk vector it was served.
struct Observation {
    tenant: usize,
    version: u64,
    risks: Vec<f64>,
}

#[test]
fn hub_stress_interleaved_deltas_and_audits_match_serial_replay() {
    let hub = Arc::new(SessionHub::with_shards(4));
    let publisher = Publisher::new().k_anonymity(K);
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i}")).collect();
    let tables: Vec<Table> = (0..TENANTS).map(tenant_table).collect();
    for (name, table) in names.iter().zip(&tables) {
        hub.register(name, table, &publisher).expect("satisfiable");
    }
    // Frozen kernel adversaries, shared by the concurrent readers and the
    // serial replay so the audits compare exactly.
    let auditors: Arc<Vec<Auditor>> = Arc::new(tables.iter().map(tenant_auditor).collect());

    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // One writer per tenant (a tenant's deltas must stay ordered), all
        // tenants concurrently.
        for (i, name) in names.iter().enumerate() {
            let hub = Arc::clone(&hub);
            scope.spawn(move || {
                for step in 0..DELTAS_PER_TENANT {
                    let mut rng = SmallRng::seed_from_u64(delta_seed(i, step));
                    let table = hub.snapshot(name).expect("registered").table().clone();
                    let delta = random_delta(&table, &mut rng);
                    hub.apply(name, &delta).expect("scripted deltas are valid");
                }
            });
        }
        // Readers audit random tenants the whole time, recording what they
        // saw. They go through the hub's shared caches (`audit_with`) and
        // independently through raw snapshots, mixing the two read paths.
        for r in 0..READERS {
            let hub = Arc::clone(&hub);
            let names = &names;
            let auditors = Arc::clone(&auditors);
            let observations = &observations;
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(SEED ^ 0xDEAD ^ r as u64);
                let mut local = Vec::new();
                let mut rounds = 0usize;
                while rounds < 10 || !writers_done.load(Ordering::Relaxed) {
                    let i = rng.gen_range(0..names.len());
                    // Pin the version first so the risks and the version
                    // number can never straddle a concurrent swap: audit
                    // the pinned snapshot directly.
                    let snap = hub.snapshot(&names[i]).expect("registered");
                    let report = if rng.gen_bool(0.5) {
                        // The shared-cache read path, against the pinned
                        // snapshot.
                        let shared = SharedAuditSession::new(auditors[i].clone());
                        snap.audit_cached(&shared, THRESHOLD)
                    } else {
                        snap.audit_fresh(&auditors[i], THRESHOLD, Parallelism::Auto)
                    };
                    local.push(Observation {
                        tenant: i,
                        version: snap.version(),
                        risks: report.risks,
                    });
                    rounds += 1;
                }
                observations.lock().expect("observations").extend(local);
            });
        }
        // The scope's main thread watches for writer completion.
        loop {
            let done = names.iter().all(|n| {
                hub.snapshot(n).expect("registered").version() as usize >= DELTAS_PER_TENANT
            });
            if done {
                break;
            }
            std::thread::yield_now();
        }
        writers_done.store(true, Ordering::Relaxed);
    });

    // Also hammer the cached hub read path once concurrently-mutated state
    // has settled, so its output enters the comparison set too.
    for (i, name) in names.iter().enumerate() {
        let report = hub
            .audit_with(name, &auditors[i], THRESHOLD)
            .expect("registered");
        let snap = hub.snapshot(name).expect("registered");
        observations
            .lock()
            .expect("observations")
            .push(Observation {
                tenant: i,
                version: snap.version(),
                risks: report.risks,
            });
    }

    // ---- Serial replay: the single-threaded ground truth. ----------------
    // For each tenant, replay the identical delta sequence through a fresh
    // session and record the reference risks at every version.
    let mut reference_risks: Vec<HashMap<u64, Vec<f64>>> = Vec::with_capacity(TENANTS);
    for (i, base) in tables.iter().enumerate() {
        let mut by_version: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut session = publisher.open(base).expect("satisfiable");
        let reference = |session: &PublishSession| {
            auditors[i].report(
                session.table(),
                &session.anonymized().row_groups(),
                THRESHOLD,
            )
        };
        by_version.insert(0, reference(&session).risks);
        for step in 0..DELTAS_PER_TENANT {
            let mut rng = SmallRng::seed_from_u64(delta_seed(i, step));
            let delta = random_delta(session.table(), &mut rng);
            session.apply(&delta).expect("same deltas as the hub run");
            by_version.insert((step + 1) as u64, reference(&session).risks);
        }

        // Final hub snapshot vs the replayed session and a from-scratch
        // publish: tables and publications bit-identical.
        let snap = hub.snapshot(&names[i]).expect("registered");
        assert_eq!(snap.version() as usize, DELTAS_PER_TENANT);
        assert_eq!(snap.table().len(), session.table().len(), "tenant {i}");
        for r in 0..snap.table().len() {
            assert_eq!(
                snap.table().qi(r),
                session.table().qi(r),
                "tenant {i} row {r}"
            );
            assert_eq!(
                snap.table().sensitive_value(r),
                session.table().sensitive_value(r),
                "tenant {i} row {r}"
            );
        }
        let fresh = publisher.publish(session.table()).expect("satisfiable");
        assert_eq!(
            snap.anonymized().group_count(),
            fresh.anonymized.group_count(),
            "tenant {i}"
        );
        for (a, b) in snap
            .anonymized()
            .groups()
            .iter()
            .zip(fresh.anonymized.groups())
        {
            assert_eq!(a.rows, b.rows, "tenant {i}");
            assert_eq!(a.ranges, b.ranges, "tenant {i}");
            assert_eq!(a.sensitive_counts, b.sensitive_counts, "tenant {i}");
        }
        reference_risks.push(by_version);
    }

    // ---- Every concurrent observation equals its version's reference. ---
    let observations = observations.into_inner().expect("observations");
    assert!(
        observations.len() >= READERS * 10 + TENANTS,
        "readers actually ran ({} observations)",
        observations.len()
    );
    let mut checked = 0usize;
    for obs in &observations {
        let reference = reference_risks[obs.tenant]
            .get(&obs.version)
            .unwrap_or_else(|| panic!("tenant {} has no version {}", obs.tenant, obs.version));
        assert_eq!(obs.risks.len(), reference.len());
        for (row, (a, b)) in obs.risks.iter().zip(reference).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "tenant {} version {} row {row}: {a} vs {b}",
                obs.tenant,
                obs.version
            );
        }
        checked += 1;
    }
    assert_eq!(checked, observations.len());
}

#[test]
fn hub_readers_pin_versions_while_writers_advance() {
    // A reader holding a snapshot must keep a fully consistent old version
    // across an arbitrary number of later deltas.
    let hub = SessionHub::new();
    let publisher = Publisher::new().k_anonymity(K);
    let table = tenant_table(0);
    hub.register("pin", &table, &publisher)
        .expect("satisfiable");
    let pinned = hub.snapshot("pin").expect("registered");
    let pinned_groups: Vec<Vec<usize>> = pinned.anonymized().row_groups();

    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..4 {
        let current = hub.snapshot("pin").expect("registered").table().clone();
        let delta = random_delta(&current, &mut rng);
        hub.apply("pin", &delta).expect("valid delta");
    }
    assert_eq!(hub.snapshot("pin").expect("registered").version(), 4);
    // The pinned version is untouched: same groups, same table, and an
    // audit of it still matches the original publication's audit.
    assert_eq!(pinned.version(), 0);
    assert_eq!(pinned.anonymized().row_groups(), pinned_groups);
    let auditor = tenant_auditor(&table);
    let of_pinned = pinned.audit_fresh(&auditor, THRESHOLD, Parallelism::Serial);
    let of_original = auditor.report(&table, &pinned_groups, THRESHOLD);
    for (a, b) in of_pinned.risks.iter().zip(&of_original.risks) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The reference every `audit_against(B_PRIME, THRESHOLD)` report must
/// equal: `Adv(B_PRIME)` estimated from scratch on the snapshot's table and
/// a fresh serial audit of its groups.
fn assert_fresh_serial(report: &AuditReport, snapshot: &TenantSnapshot, context: &str) {
    let table = snapshot.table();
    let expected = tenant_auditor(table).report_with(
        table,
        &snapshot.anonymized().row_groups(),
        THRESHOLD,
        Parallelism::Serial,
    );
    assert_eq!(report.risks.len(), expected.risks.len(), "{context}");
    for (row, (a, b)) in report.risks.iter().zip(&expected.risks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: risk of row {row}");
    }
    assert_eq!(
        report.worst_case.to_bits(),
        expected.worst_case.to_bits(),
        "{context}"
    );
    assert_eq!(report.mean.to_bits(), expected.mean.to_bits(), "{context}");
    assert_eq!(report.vulnerable, expected.vulnerable, "{context}");
}

/// Apply one random delta to `tenant` and return the new snapshot.
fn step(hub: &SessionHub, tenant: &str, rng: &mut SmallRng) -> Arc<TenantSnapshot> {
    let current = hub.snapshot(tenant).expect("registered").table().clone();
    hub.apply(tenant, &random_delta(&current, rng))
        .expect("valid delta")
}

#[test]
fn adv_chain_matches_fresh_serial_audits_across_skipped_versions() {
    let hub = SessionHub::new();
    hub.register("t", &tenant_table(0), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    let audited = [0u64, 1, 4, 5, 8];
    for version in 0..=8u64 {
        let snapshot = if version == 0 {
            hub.snapshot("t").expect("registered")
        } else {
            step(&hub, "t", &mut rng)
        };
        if audited.contains(&version) {
            let context = format!("version {version}");
            let report = hub
                .audit_against("t", B_PRIME, THRESHOLD)
                .expect("registered");
            assert_fresh_serial(&report, &snapshot, &context);
            // A repeat audit of the same version replays the cached chain.
            let replay = hub
                .audit_against("t", B_PRIME, THRESHOLD)
                .expect("registered");
            assert_fresh_serial(&replay, &snapshot, &context);
        }
    }
}

#[test]
fn adv_chain_readers_racing_one_version_miss_match_fresh_serial_audits() {
    let hub = SessionHub::new();
    hub.register("t", &tenant_table(1), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    hub.audit_against("t", B_PRIME, THRESHOLD)
        .expect("registered");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 2);
    for round in 0..3 {
        let snapshot = step(&hub, "t", &mut rng);
        // Every racer misses the new version at once: one takes the chain
        // base, the others build without it; all must agree.
        let reports: Vec<AuditReport> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..READERS + 1)
                .map(|_| scope.spawn(|| hub.audit_against("t", B_PRIME, THRESHOLD)))
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer").expect("registered"))
                .collect()
        });
        for (i, report) in reports.iter().enumerate() {
            assert_fresh_serial(report, &snapshot, &format!("round {round} racer {i}"));
        }
    }
}

#[test]
fn adv_chain_survives_eviction_mid_chain_on_a_budgeted_hub() {
    let dir = std::env::temp_dir().join(format!("bgkanon_hub_chain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = bgkanon::DurabilityOptions {
        sync: bgkanon::SyncPolicy::Never,
        checkpoint_every: 2,
        verify_on_open: false,
        max_resident_bytes: Some(1),
    };
    let (hub, _) = SessionHub::open_with(&dir, options).expect("open durable hub");
    let names = ["a", "b", "c"];
    for (i, name) in names.iter().enumerate() {
        hub.register(name, &tenant_table(i), &Publisher::new().k_anonymity(K))
            .expect("satisfiable");
    }
    let mut rng = SmallRng::seed_from_u64(SEED ^ 3);
    for round in 0..3 {
        for name in names {
            // A 1-byte budget demotes every other tenant on each call: a
            // tenant's first release of a round rehydrates it with no
            // chain, the second refreshes along the chain the first built.
            for release in 0..2 {
                let snapshot = step(&hub, name, &mut rng);
                let report = hub
                    .audit_against(name, B_PRIME, THRESHOLD)
                    .expect("registered");
                let context = format!("{name} round {round} release {release}");
                assert_fresh_serial(&report, &snapshot, &context);
            }
        }
    }
    let stats = hub.memory_stats();
    assert!(stats.evictions > 0 && stats.rehydrations > 0, "{stats:?}");
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adv_chain_clones_a_shared_interned_model_before_diverging() {
    let hub = SessionHub::new();
    let table = tenant_table(2);
    for name in ["a", "b"] {
        hub.register(name, &table, &Publisher::new().k_anonymity(K))
            .expect("satisfiable");
    }
    let b_before = hub
        .audit_against("b", B_PRIME, THRESHOLD)
        .expect("registered");
    hub.audit_against("a", B_PRIME, THRESHOLD)
        .expect("registered");
    let stats = hub.memory_stats();
    assert_eq!((stats.interned_models, stats.intern_hits), (1, 1));

    // `a` diverges: its chain refreshes the model `b` still shares, which
    // must be cloned — `b` keeps being served its own version's risks.
    let mut rng = SmallRng::seed_from_u64(SEED ^ 4);
    let a1 = step(&hub, "a", &mut rng);
    let report = hub
        .audit_against("a", B_PRIME, THRESHOLD)
        .expect("registered");
    assert_fresh_serial(&report, &a1, "a after diverging");
    let b_after = hub
        .audit_against("b", B_PRIME, THRESHOLD)
        .expect("registered");
    let b0 = hub.snapshot("b").expect("registered");
    assert_fresh_serial(&b_after, &b0, "b after a diverged");
    for (x, y) in b_before.risks.iter().zip(&b_after.risks) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // `b` follows with the same delta: its content meets `a`'s again, so
    // its chain takes the interned model instead of refreshing its own.
    let delta = {
        let mut rng = SmallRng::seed_from_u64(SEED ^ 4);
        random_delta(b0.table(), &mut rng)
    };
    let b1 = hub.apply("b", &delta).expect("valid delta");
    let hits = hub.memory_stats().intern_hits;
    let report = hub
        .audit_against("b", B_PRIME, THRESHOLD)
        .expect("registered");
    assert_eq!(hub.memory_stats().intern_hits, hits + 1);
    assert_fresh_serial(&report, &b1, "b after converging");
}
