//! Property tests of the sparse compact-support estimation engine: for any
//! table, bandwidth and kernel family, the neighbor-bounded sparse engine
//! must be **bit-identical** to the dense all-pairs reference, and a
//! refreshed model must be bit-identical to a from-scratch estimate of the
//! final table after **any** delta sequence, including jumps over versions
//! the model never saw.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{Bandwidth, FoldedTable, KernelFamily, PriorEstimator, PriorModel};
use bgkanon::stats::Dist;

fn family(index: usize) -> KernelFamily {
    match index % 3 {
        0 => KernelFamily::Epanechnikov,
        1 => KernelFamily::Uniform,
        _ => KernelFamily::Triangular,
    }
}

fn assert_bit_identical(
    a: &bgkanon::knowledge::PriorModel,
    b: &bgkanon::knowledge::PriorModel,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "model size diverges: {}", context);
    for (qi, p) in a.iter() {
        let q = b.prior(qi);
        prop_assert!(q.is_some(), "missing prior: {}", context);
        let q = q.expect("checked");
        for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "prior bits diverge: {}", context);
        }
    }
    for (x, y) in a
        .table_distribution()
        .as_slice()
        .iter()
        .zip(b.table_distribution().as_slice())
    {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "table distribution diverges: {}",
            context
        );
    }
    Ok(())
}

/// A pseudo-random delta over `table`: roughly `del_frac` of the rows
/// deleted and `inserts` fresh synthetic rows appended.
fn random_delta(table: &Table, rng: &mut SmallRng, del_frac: f64, inserts: usize) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if rng.gen_bool(del_frac) {
            builder.delete(row);
        }
    }
    let donors = adult::generate(inserts.max(1), rng.gen::<u64>());
    for r in 0..inserts {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    builder.build()
}

/// One delta of the `refresh_to` chain, by kind: `0` random churn, `1`
/// every row of one QI combination deleted outright, `2` rows inserted
/// only at combinations the table has never seen, `3` a no-op delta.
fn chain_delta(table: &Table, rng: &mut SmallRng, kind: u32) -> Delta {
    match kind {
        0 => random_delta(table, rng, 0.05, 3),
        1 => {
            let victim = table.qi(rng.gen_range(0..table.len()));
            let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
            for row in (0..table.len()).filter(|&r| table.qi(r) == victim) {
                builder.delete(row);
            }
            builder.build()
        }
        2 => {
            let fold = FoldedTable::new(table);
            let donors = adult::generate(8, rng.gen::<u64>());
            let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
            for r in (0..donors.len()).filter(|&r| fold.find(&donors.qi(r)).is_none()) {
                builder
                    .insert_codes(&donors.qi(r), donors.sensitive_value(r))
                    .expect("donor rows share the schema");
            }
            builder.build()
        }
        _ => Delta::empty(Arc::clone(table.schema())),
    }
}

/// Every prior's `(id, bits)`, keyed by QI combination.
fn prior_ids(model: &PriorModel) -> HashMap<Vec<u32>, (u64, Vec<u64>)> {
    model
        .iter()
        .map(|(qi, p)| {
            let (id, _) = model.prior_entry(qi);
            let bits = p.as_slice().iter().map(|x| x.to_bits()).collect();
            (qi.to_vec(), (id, bits))
        })
        .collect()
}

/// The prior-id contract across one refresh: an id that survived names
/// the same bits, and no recomputed prior reuses an id of `before`.
fn assert_ids_name_values(
    before: &HashMap<Vec<u32>, (u64, Vec<u64>)>,
    after: &PriorModel,
    context: &str,
) -> Result<(), TestCaseError> {
    let old_ids: std::collections::HashSet<u64> = before.values().map(|(id, _)| *id).collect();
    for (qi, (id, bits)) in prior_ids(after) {
        match before.get(&qi) {
            Some((old_id, old_bits)) if *old_id == id => {
                prop_assert_eq!(old_bits, &bits, "an id changed its value: {}", context);
            }
            _ => prop_assert!(!old_ids.contains(&id), "an id was reused: {}", context),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_engine_is_bit_identical_to_dense_reference(
        rows in 30usize..260,
        seed in 0u64..1000,
        b in 0.02f64..1.4,
        family_index in 0usize..3,
        threads in 1usize..4,
    ) {
        let table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let dense = estimator.estimate_reference(&table);
        let sparse = estimator.estimate_with(&table, Parallelism::threads(threads));
        let context = format!("rows={rows} seed={seed} b={b} family={family_index}");
        assert_bit_identical(&dense, &sparse, &context)?;
        // The Serial knob selects the same reference path.
        let serial = estimator.estimate_with(&table, Parallelism::Serial);
        assert_bit_identical(&dense, &serial, &context)?;
    }

    #[test]
    fn refresh_is_bit_identical_to_from_scratch_after_any_delta_sequence(
        rows in 40usize..220,
        seed in 0u64..500,
        b in 0.05f64..0.9,
        family_index in 0usize..3,
        steps in 1usize..4,
    ) {
        let mut table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let mut model = estimator.estimate(&table);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0e57_1ea7);
        for step in 0..steps {
            let delta = random_delta(&table, &mut rng, 0.05, 2 + step);
            let Ok(next) = table.apply_delta(&delta) else {
                // The delta emptied the table — nothing left to estimate.
                break;
            };
            table = next;
            estimator.refresh_to(&mut model, FoldedTable::new(&table), Parallelism::threads(2));
            let fresh = estimator.estimate(&table);
            let context = format!(
                "rows={rows} seed={seed} b={b} family={family_index} step={step}"
            );
            assert_bit_identical(&fresh, &model, &context)?;
            // The installed fold matches a from-scratch fold of the table.
            let folded = model.folded().expect("estimate-built models refresh");
            let scratch = FoldedTable::new(&table);
            prop_assert_eq!(folded.len(), scratch.len(), "fold size: {}", &context);
            prop_assert_eq!(folded.rows(), scratch.rows(), "fold rows: {}", &context);
            for (a, b) in folded.points().zip(scratch.points()) {
                prop_assert_eq!(a.qi(), b.qi(), "fold keys: {}", &context);
                prop_assert_eq!(a.count(), b.count(), "fold counts: {}", &context);
                prop_assert_eq!(
                    a.sensitive_counts(),
                    b.sensitive_counts(),
                    "fold histograms: {}",
                    &context
                );
            }
        }
    }

    #[test]
    fn refresh_to_is_bit_identical_to_the_reference_across_skipped_versions(
        rows in 40usize..200,
        seed in 0u64..500,
        b in 0.05f64..0.9,
        family_index in 0usize..3,
        steps in 1usize..6,
        kinds in 0u32..1024,
        skips in 0u32..32,
    ) {
        let mut table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let mut model = estimator.estimate(&table);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e_f0e5);
        for step in 0..steps {
            let kind = (kinds >> (2 * step)) & 3;
            let delta = chain_delta(&table, &mut rng, kind);
            let Ok(next) = table.apply_delta(&delta) else {
                // The delta emptied the table — nothing left to estimate.
                break;
            };
            table = next;
            // Skipped versions: the model jumps straight to a later one.
            if skips & (1 << step) != 0 && step + 1 < steps {
                continue;
            }
            let context = format!(
                "rows={rows} seed={seed} b={b} family={family_index} step={step} kind={kind}"
            );
            let before = prior_ids(&model);
            let engine = if step % 2 == 0 { Parallelism::threads(2) } else { Parallelism::Serial };
            estimator.refresh_to(&mut model, FoldedTable::new(&table), engine);
            assert_bit_identical(&estimator.estimate_reference(&table), &model, &context)?;
            assert_ids_name_values(&before, &model, &context)?;
        }
    }
}

#[test]
fn full_bandwidth_uniform_kernel_reduces_to_table_distribution() {
    // §II.D: a uniform kernel spanning the whole normalized range weights
    // every tuple equally, so every prior collapses to the table
    // distribution — the fully dense support edge (B ≥ 1) of the sparse
    // engine.
    let table = adult::generate(400, 21);
    for b in [1.0, 1.25] {
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).unwrap(),
            KernelFamily::Uniform,
        );
        // Every per-attribute table is fully dense at this bandwidth.
        for density in estimator.support_density() {
            assert_eq!(density, 1.0, "b={b} must saturate the support");
        }
        let model = estimator.estimate(&table);
        let q = model.table_distribution();
        for (qi, p) in model.iter() {
            assert!(
                p.max_abs_diff(q) < 1e-12,
                "b={b}: prior at {qi:?} should equal the table distribution"
            );
        }
    }
}

#[test]
fn tiny_bandwidth_recovers_the_group_mle() {
    // B → 0: only exact QI matches carry weight, so each prior is the
    // empirical sensitive distribution of the rows sharing the combination.
    let table = adult::generate(500, 33);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(1e-9, table.qi_count()).unwrap(),
    );
    let model = estimator.estimate(&table);
    for (qi, rows) in table.group_by_qi() {
        let mle = Dist::from_counts(&table.sensitive_counts_in(&rows)).unwrap();
        let prior = model.prior(&qi).expect("every distinct point has a prior");
        assert!(
            prior.max_abs_diff(&mle) < 1e-12,
            "MLE recovery fails at {qi:?}"
        );
    }
}

#[test]
fn zero_neighbor_query_falls_back_to_table_distribution() {
    // A query outside every kernel support has an empty candidate set; the
    // estimate degrades to the whole-table distribution.
    let table = adult::generate(200, 8);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(1e-9, table.qi_count()).unwrap(),
    );
    let folded = FoldedTable::new(&table);
    // Synthesize a QI combination absent from the table: flip the gender
    // code of an existing row and bump the age by one until unseen.
    let mut q: Vec<u32> = table.qi(0).to_vec();
    loop {
        q[0] = (q[0] + 1) % table.schema().qi_attribute(0).domain_size();
        if folded.find(&q).is_none() {
            break;
        }
    }
    let p = estimator.estimate_many(&folded, &[&q]);
    let expected = Dist::new(table.sensitive_distribution()).unwrap();
    assert!(p[0].max_abs_diff(&expected) < 1e-15);
}

#[test]
fn estimate_many_is_consistent_with_model_priors() {
    let table = adult::generate(300, 77);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    );
    let model = estimator.estimate(&table);
    let folded = FoldedTable::new(&table);
    let owned: Vec<Vec<u32>> = (0..20).map(|r| table.qi(r * 7)).collect();
    let queries: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
    let many = estimator.estimate_many(&folded, &queries);
    for (q, p) in queries.iter().zip(&many) {
        let from_model = model.prior(q).expect("in-table point");
        for (x, y) in p.as_slice().iter().zip(from_model.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn refresh_to_covers_every_delta_kind_and_kernel_family() {
    // Deterministic companion of the proptest: every delta kind, a skipped
    // version, per-delta `PriorModel::refresh` next to the fold-driven
    // chain, all three families.
    for family_index in 0..3 {
        let base = adult::generate(180, 31 + family_index as u64);
        let estimator = PriorEstimator::with_family(
            Arc::clone(base.schema()),
            Bandwidth::uniform(0.3, base.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let mut by_delta = estimator.estimate(&base);
        let mut by_fold = by_delta.clone();
        let mut table = base;
        let mut rng = SmallRng::seed_from_u64(family_index as u64);
        for (step, kind) in [1u32, 2, 3, 0, 1, 2].into_iter().enumerate() {
            let delta = chain_delta(&table, &mut rng, kind);
            let next = table
                .apply_delta(&delta)
                .expect("the table stays non-empty");
            // Only the no-op delta leaves the fold unchanged.
            let changed = FoldedTable::new(&table).changed_points(&FoldedTable::new(&next));
            assert_eq!(kind == 3, changed.is_empty(), "kind {kind}");

            by_delta.refresh(&estimator, &table, &delta);
            table = next;
            // Version 3 is skipped by the fold-driven chain.
            if step != 3 {
                estimator.refresh_to(&mut by_fold, FoldedTable::new(&table), Parallelism::Auto);
                let reference = estimator.estimate_reference(&table);
                let context = format!("family={family_index} step={step} kind={kind}");
                assert_bit_identical(&reference, &by_fold, &context).expect("refresh_to");
                assert_bit_identical(&reference, &by_delta, &context).expect("refresh");
            }
        }
    }
}
