//! Ablation studies of the reproduction's design choices.
//!
//! * [`kernel_family`] — §II.C claims the kernel *shape* matters far less
//!   than the bandwidth; we quantify it (prior shift, Ω accuracy and attack
//!   outcome under Epanechnikov / uniform / triangular kernels).
//! * [`measure_smoothing`] — how the smoothing bandwidth of the belief
//!   distance trades probability-scaling sensitivity against semantic
//!   tolerance (our 0.55 calibration vs heavier smoothing).
//! * [`omega_vs_exact`] — wall-clock crossover between exact inference and
//!   the Ω-estimate as the group grows (why the paper needs Ω at all).
//! * [`rule_subsumption`] — Injector-style negative association rules are
//!   recovered by the kernel prior as the bandwidth shrinks (§II.B).

use std::sync::Arc;
use std::time::Instant;

use bgkanon::inference::accuracy::average_distance_error;
use bgkanon::inference::{exact_posteriors, omega_posteriors, GroupPriors};
use bgkanon::knowledge::mining::{mine_negative_rules, verify_subsumption, MiningConfig};
use bgkanon::knowledge::{Adversary, Bandwidth, KernelFamily};
use bgkanon::params::PARA1;
use bgkanon::privacy::Auditor;
use bgkanon::publisher::Publisher;
use bgkanon::stats::{Kernel, SmoothedJs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::report::{f1, f3, Report};

/// Kernel-family ablation: same bandwidth, three kernel shapes.
pub fn kernel_family(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let outcome = Publisher::new()
        .k_anonymity(PARA1.k)
        .distinct_l_diversity(PARA1.l)
        .publish(&table)
        .expect("satisfiable");

    let mut report = Report::new(
        &format!(
            "Ablation: kernel family at b'=0.3 (n={}, l-diverse table)",
            table.len()
        ),
        &["max prior shift", "mean rho", "vulnerable"],
    );
    let reference = Adversary::kernel_with_family(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).expect("positive"),
        KernelFamily::Epanechnikov,
    );
    for family in [
        KernelFamily::Epanechnikov,
        KernelFamily::Uniform,
        KernelFamily::Triangular,
    ] {
        let adversary = Adversary::kernel_with_family(
            &table,
            Bandwidth::uniform(0.3, table.qi_count()).expect("positive"),
            family,
        );
        // How far do the estimated priors drift from the Epanechnikov ones?
        let mut max_shift = 0.0f64;
        let mut qi = Vec::with_capacity(table.qi_count());
        for r in (0..table.len()).step_by(11) {
            table.qi_into(r, &mut qi);
            max_shift = max_shift.max(adversary.prior(&qi).max_abs_diff(reference.prior(&qi)));
        }
        // Ω accuracy under this prior family.
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut rho = 0.0;
        let trials = cfg.trials.max(10);
        for _ in 0..trials {
            let rows: Vec<usize> = (0..8).map(|_| rng.gen_range(0..table.len())).collect();
            let group =
                GroupPriors::from_table_rows(&table, &rows, |qi| adversary.prior(qi).clone());
            rho += average_distance_error(&group, measure.as_ref());
        }
        rho /= trials as f64;
        // Attack outcome.
        let auditor = Auditor::new(Arc::new(adversary), Arc::clone(&measure) as _);
        let vulnerable = auditor
            .report(&table, &outcome.anonymized.row_groups(), PARA1.t)
            .vulnerable;
        report.row(
            &format!("{family:?}"),
            vec![f3(max_shift), f3(rho), vulnerable.to_string()],
        );
    }
    report.note("paper §II.C: kernel choice has only small effects compared with the bandwidth");
    report.render()
}

/// Smoothing-bandwidth ablation for the belief distance.
pub fn measure_smoothing(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let outcome = Publisher::new()
        .k_anonymity(PARA1.k)
        .distinct_l_diversity(PARA1.l)
        .publish(&table)
        .expect("satisfiable");
    let adversary = Arc::new(Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).expect("positive"),
    ));
    let mut report = Report::new(
        &format!(
            "Ablation: sensitive-domain smoothing bandwidth (n={}, b'=0.3)",
            table.len()
        ),
        &["worst-case risk", "mean risk", "vulnerable"],
    );
    for smooth_b in [0.55, 0.75, 0.9, 1.1, 1.5] {
        let measure = Arc::new(SmoothedJs::new(
            table.schema().sensitive_distance(),
            Kernel::epanechnikov(smooth_b),
        ));
        let auditor = Auditor::new(Arc::clone(&adversary), measure as _);
        let rep = auditor.report(&table, &outcome.anonymized.row_groups(), PARA1.t);
        report.row(
            &format!("smoothing={smooth_b}"),
            vec![f3(rep.worst_case), f3(rep.mean), rep.vulnerable.to_string()],
        );
    }
    report
        .note("heavier smoothing collapses within-sector belief changes; 0.55 keeps them visible");
    report.render()
}

/// Exact-vs-Ω runtime and agreement as the group grows.
pub fn omega_vs_exact(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let adversary = Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).expect("positive"),
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = Report::new(
        &format!(
            "Ablation: exact inference vs Omega-estimate (n={})",
            table.len()
        ),
        &["exact time", "omega time", "max |diff|"],
    );
    for k in [4usize, 8, 12, 16] {
        let rows: Vec<usize> = (0..k).map(|_| rng.gen_range(0..table.len())).collect();
        let group = GroupPriors::from_table_rows(&table, &rows, |qi| adversary.prior(qi).clone());
        let t0 = Instant::now();
        let exact = exact_posteriors(&group);
        let exact_time = t0.elapsed();
        let t1 = Instant::now();
        let omega = omega_posteriors(&group);
        let omega_time = t1.elapsed();
        let max_diff = exact
            .iter()
            .zip(&omega)
            .map(|(e, o)| e.max_abs_diff(o))
            .fold(0.0, f64::max);
        report.row(
            &format!("k={k}"),
            vec![
                format!("{:.1}us", exact_time.as_secs_f64() * 1e6),
                format!("{:.1}us", omega_time.as_secs_f64() * 1e6),
                f3(max_diff),
            ],
        );
    }
    report.note("exact inference is exponential in the number of distinct values; Omega is O(k*m)");
    report.render()
}

/// Negative-rule subsumption (§II.B): worst prior mass on excluded values
/// as the bandwidth shrinks.
pub fn rule_subsumption(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let rules = mine_negative_rules(&table, &MiningConfig::default());
    let mut report = Report::new(
        &format!(
            "Ablation: kernel subsumption of {} mined negative rules (n={})",
            rules.len(),
            table.len()
        ),
        &["max prior on excluded", "mean prior on excluded"],
    );
    for b in [0.5, 0.3, 0.2, 0.1, 0.01] {
        let checks = verify_subsumption(&table, &rules, b);
        let max = checks
            .iter()
            .map(|c| c.max_prior_on_excluded)
            .fold(0.0, f64::max);
        let mean = if checks.is_empty() {
            0.0
        } else {
            checks.iter().map(|c| c.max_prior_on_excluded).sum::<f64>() / checks.len() as f64
        };
        report.row(&format!("b={b}"), vec![f3(max), f3(mean)]);
    }
    report.note("as b → 0 the kernel prior recovers every 100%-confidence negative rule exactly");
    report.render()
}

/// Local (Mondrian) vs global (full-domain/Incognito) recoding under the
/// same k-anonymity ∧ distinct ℓ-diversity requirement.
pub fn recoding_comparison(cfg: &ExperimentConfig) -> String {
    use bgkanon::anon::{FullDomain, Mondrian};
    use bgkanon::privacy::{And, DistinctLDiversity, KAnonymity};
    use bgkanon::utility::{discernibility, global_certainty_penalty};

    let table = cfg.table();
    let req = || {
        Arc::new(And::pair(
            KAnonymity::new(PARA1.k),
            DistinctLDiversity::new(PARA1.l),
        ))
    };
    let local = Mondrian::new(req()).anonymize(&table);
    let global = FullDomain::new_monotone(req())
        .try_anonymize(&table)
        .expect("top of lattice satisfies")
        .anonymized;

    let adversary = Arc::new(Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).expect("positive"),
    ));
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let auditor = Auditor::new(adversary, measure);

    let mut report = Report::new(
        &format!(
            "Ablation: local (Mondrian) vs global (full-domain) recoding (n={})",
            table.len()
        ),
        &["groups", "DM", "GCP", "worst-case risk", "vulnerable"],
    );
    for (name, at) in [
        ("Mondrian (local)", &local),
        ("Incognito (global)", &global),
    ] {
        let rep = auditor.report(&table, &at.row_groups(), PARA1.t);
        report.row(
            name,
            vec![
                at.group_count().to_string(),
                discernibility(at).to_string(),
                f1(global_certainty_penalty(at)),
                f3(rep.worst_case),
                rep.vulnerable.to_string(),
            ],
        );
    }
    report.note("local recoding dominates on utility; both audit through the same machinery");
    report.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            rows: 400,
            trials: 5,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn kernel_family_report_renders() {
        let out = kernel_family(&tiny());
        assert!(out.contains("Epanechnikov"));
        assert!(out.contains("Uniform"));
        assert!(out.contains("Triangular"));
    }

    #[test]
    fn measure_smoothing_report_renders() {
        let out = measure_smoothing(&tiny());
        assert!(out.contains("smoothing=0.55"));
        assert!(out.contains("smoothing=1.5"));
    }

    #[test]
    fn omega_vs_exact_report_renders() {
        let out = omega_vs_exact(&tiny());
        assert!(out.contains("k=16"));
    }

    #[test]
    fn recoding_comparison_renders() {
        let out = recoding_comparison(&tiny());
        assert!(out.contains("Mondrian (local)"));
        assert!(out.contains("Incognito (global)"));
    }

    #[test]
    fn rule_subsumption_tightens_with_bandwidth() {
        let out = rule_subsumption(&ExperimentConfig {
            rows: 2_000,
            ..ExperimentConfig::quick()
        });
        assert!(out.contains("b=0.01"));
        // The last row (b = 0.01) must show zero leakage.
        let last = out.lines().rfind(|l| l.starts_with("b=")).unwrap();
        assert!(last.contains("0.000"), "{last}");
    }
}
