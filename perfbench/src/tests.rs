//! Determinism self-tests: one seed gives one script and one set of
//! counts, another seed another script, and every input is generated.

use crate::common::{digest_all, digest_table, Outcome, RunArgs};
use crate::{fleet, serve};

fn args(seed: u64, trace: bool) -> RunArgs {
    RunArgs {
        seed,
        seconds: 0.2,
        trace,
    }
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

const SMALL_FLEET: fleet::Shape = fleet::Shape {
    tenants: 60,
    rows: 64,
    distinct: 8,
    k: 4,
    checkpoint_every: 8,
    budget_bytes: 400_000,
    traced_ops: 400,
};

const SMALL_SERVE: serve::Shape = serve::Shape {
    tenants: 2,
    rows: 2_000,
    k: 10,
    reads_per_release: 5,
    checkpoint_every: 8,
    traced_releases: 11,
};

#[test]
fn one_seed_gives_one_script() {
    let a: Vec<fleet::Op> = fleet::Script::new(7, 500).take(2000).collect();
    let b: Vec<fleet::Op> = fleet::Script::new(7, 500).take(2000).collect();
    assert_eq!(a, b);
    let c: Vec<fleet::Op> = fleet::Script::new(8, 500).take(2000).collect();
    assert_ne!(a, c);
    let applies = a
        .iter()
        .filter(|op| matches!(op, fleet::Op::Apply(_)))
        .count();
    assert!(
        (200..400).contains(&applies),
        "about 15% applies, got {applies}"
    );
}

#[test]
fn inputs_are_generated_from_the_seed_alone() {
    let digest = |seed: u64| {
        let (setup, _) = serve::Setup::build(SMALL_SERVE, seed, "test-inputs", None);
        let d = digest_all(
            setup
                .genesis
                .iter()
                .chain([&setup.donors])
                .map(digest_table)
                .chain((1..4).map(|v| {
                    digest_table(&setup.genesis[0].apply_delta(&setup.delta(0, v)).unwrap())
                })),
        );
        let _ = std::fs::remove_dir_all(&setup.dir);
        d
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn fleet_counts_repeat_for_a_seed() {
    let counts = |seed: u64| {
        let out = fleet::run_traced_shape(&args(seed, true), SMALL_FLEET);
        assert!(
            out.correct,
            "traced fleet lane disagrees with its references"
        );
        [
            "hub.evictions",
            "hub.rehydrations",
            "knowledge.intern_hits",
            "knowledge.intern_lookups",
            "privacy.dirty_groups",
            "privacy.version_groups",
            "recover.records_replayed",
        ]
        .map(|n| metric(&out, n))
    };
    let first = counts(11);
    assert!(
        first[0] > 0.0 && first[1] > 0.0,
        "the small budget must evict: {first:?}"
    );
    assert_eq!(first, counts(11));
}

#[test]
fn serve_counts_repeat_for_a_seed() {
    let counts = |seed: u64| {
        let out = serve::run_traced_shape(&args(seed, true), SMALL_SERVE);
        assert!(
            out.correct,
            "traced serve lane disagrees with its references"
        );
        [
            "privacy.dirty_groups",
            "privacy.version_groups",
            "recover.records_replayed",
            "hub.evictions",
        ]
        .map(|n| metric(&out, n))
    };
    let first = counts(5);
    // 11 releases per tenant with a checkpoint every 8: 3 records each.
    assert_eq!(first[2], 6.0);
    assert_eq!(first, counts(5));
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let out = fleet::run_shape(&args(2, false), SMALL_FLEET);
    assert!(out.correct);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    assert_eq!(
        names,
        ["setup_s", "ops_per_s", "write_ms", "read_ms", "peak_rss_mb"]
    );
    assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
    let json = out.report.json();
    for key in ["\"nproc\"", "\"seed\"", "\"rows\"", "\"ops\"", "\"n\": "] {
        assert!(json.contains(key), "report lacks {key}: {json}");
    }
}
