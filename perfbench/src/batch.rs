//! `batch_1m`: the one-shot pipeline on one 1M-row table under
//! `Parallelism::Auto` — no session, WAL or hub. A pass is publish
//! (Mondrian plant + snapshot, what `Publisher::publish` runs), fold,
//! estimate `Adv(0.25)`, kernel audit, t-closeness audit and `group_by_qi`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon::data::{adult, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth, FoldedTable, PriorEstimator};
use bgkanon::privacy::Auditor;
use bgkanon::stats::SmoothedJs;

use crate::common::{
    digest_all, digest_groups, digest_report, mix, mondrian, ms_since, nproc, peak_rss_mb, Outcome,
    RunArgs,
};
use crate::layers::{self, LayerTotals};
use crate::report::{median, Dist, Ratio, Report};
use crate::trace::Tracer;

pub const ROWS: usize = 1_000_000;
const K: usize = 10;
const B_PRIME: f64 = 0.25;
const T: f64 = 0.2;
const SETUP_REPS: usize = 5;
const TRACED_PASSES: usize = 2;

/// One pass's output digest and timings.
pub struct Pass {
    pub digest: u64,
    pub ms: f64,
    pub audit_ms: f64,
}

/// Run `f`, as a span when tracing.
fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, op, f),
        None => f(),
    }
}

/// One full pipeline pass over `table` on `engine`.
pub fn pass(table: &Table, engine: Parallelism, mut tracer: Option<&mut Tracer>, op: u64) -> Pass {
    let started = Instant::now();
    let strategy = mondrian(K);
    let tree = step(&mut tracer, "anon.plant", op, || {
        strategy.plant_with(table, engine)
    });
    let (anonymized, _stamps) = step(&mut tracer, "anon.snapshot", op, || tree.snapshot(table));
    let published = Instant::now();
    let fold = step(&mut tracer, "knowledge.fold", op, || {
        FoldedTable::new(table)
    });
    let fold_hash = fold.content_hash();
    let bandwidth = Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth");
    let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
    // The estimator's `Serial` knob is the dense all-pairs reference — about
    // 80 s at 1M rows — so the serial lane runs the sparse engine on one
    // thread instead.
    let estimate_engine = if engine.is_serial() {
        Parallelism::threads(1)
    } else {
        engine
    };
    let model = step(&mut tracer, "knowledge.estimate", op, || {
        estimator.estimate_folded(fold, estimate_engine)
    });
    let groups = anonymized.row_groups();
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let audits = Instant::now();
    let kernel = Auditor::new(
        Arc::new(Adversary::from_model(
            &format!("Adv({bandwidth})"),
            bandwidth,
            Arc::new(model),
        )),
        measure.clone(),
    );
    let kernel = step(&mut tracer, "privacy.audit_cold", op, || {
        kernel.report_with(table, &groups, T, engine)
    });
    let tcl = Auditor::new(Arc::new(Adversary::t_closeness(table)), measure);
    let tcl = step(&mut tracer, "privacy.tcloseness", op, || {
        tcl.report_with(table, &groups, T, engine)
    });
    let audit_ms = ms_since(audits);
    let by_qi = step(&mut tracer, "data.group_by", op, || table.group_by_qi());
    let ended = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.record("publish", op, started, published);
        t.record("pass", op, started, ended);
    }
    let by_qi_digest = digest_all(by_qi.iter().flat_map(|(k, rows)| {
        k.iter()
            .map(|&c| u64::from(c))
            .chain(rows.iter().map(|&r| r as u64))
    }));
    Pass {
        digest: digest_all([
            digest_groups(&anonymized),
            fold_hash,
            digest_report(&kernel),
            digest_report(&tcl),
            by_qi_digest,
        ]),
        ms: (ended - started).as_secs_f64() * 1e3,
        audit_ms,
    }
}

fn generate(seed: u64, rows: usize) -> (Table, f64) {
    let started = Instant::now();
    let table = adult::generate(rows, mix(seed, 1));
    (table, started.elapsed().as_secs_f64())
}

fn context(report: &mut Report, args: &RunArgs, rows: usize, passes: usize) {
    report.count("nproc", nproc() as u64);
    report.count("seed", args.seed);
    report.count("rows", rows as u64);
    report.count("ops", passes as u64);
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    run_rows(args, ROWS)
}

pub fn run_rows(args: &RunArgs, rows: usize) -> Outcome {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut table = None;
    for _ in 0..SETUP_REPS {
        drop(table.take());
        let (t, secs) = generate(args.seed, rows);
        setup_secs.push(secs);
        table = Some(t);
    }
    let table = table.expect("at least one set-up");

    let reference = pass(&table, Parallelism::Auto, None, 0).digest;
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed() < window {
        passes.push(pass(&table, Parallelism::Auto, None, 0));
    }
    let rss = peak_rss_mb();

    // Correctness, outside the window: every pass reproduced the warm-up
    // pass, and the serial engines produce the same output.
    let mut mismatches = passes.iter().filter(|p| p.digest != reference).count() as u64;
    mismatches += u64::from(pass(&table, Parallelism::Serial, None, 0).digest != reference);

    let pass_ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
    let audit_ms: Vec<f64> = passes.iter().map(|p| p.audit_ms).collect();
    let write = median(&pass_ms);
    let rows_per_s = rows as f64 / (write / 1e3);
    let setup_s = median(&setup_secs);
    let attempted = passes.len() as u64;

    let mut report = Report::default();
    context(&mut report, args, rows, passes.len());
    report.value("setup_s", setup_s, "s");
    report.dist("pass_ms", Dist::new("ms", pass_ms.clone(), 0.95));
    report.dist("audit_ms", Dist::new("ms", audit_ms.clone(), 0.95));
    report.value("pipeline_rows_per_s", rows_per_s, "rows/s");
    report.value("peak_rss_mb", rss, "MB");
    report.ratio("failed_frac", Ratio::new(mismatches, attempted));
    report.count("correctness_mismatches", mismatches);

    Outcome {
        correct: mismatches == 0,
        attempted,
        failed: mismatches,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", rows_per_s, "ops/s"),
            ("write_ms", write, "ms"),
            ("read_ms", median(&audit_ms), "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
        report,
    }
}

/// The traced run: the same passes untraced, then with every layer call
/// as a span; both lanes must agree bit for bit.
pub fn run_traced(args: &RunArgs) -> Outcome {
    run_traced_rows(args, ROWS)
}

pub fn run_traced_rows(args: &RunArgs, rows: usize) -> Outcome {
    let mut tracer = Tracer::new(Instant::now());
    let table = tracer.span("data.generate", 0, || {
        adult::generate(rows, mix(args.seed, 1))
    });
    let plain: Vec<Pass> = (0..TRACED_PASSES)
        .map(|_| pass(&table, Parallelism::Auto, None, 0))
        .collect();
    let traced: Vec<Pass> = (0..TRACED_PASSES)
        .map(|i| pass(&table, Parallelism::Auto, Some(&mut tracer), i as u64 + 1))
        .collect();
    let reference = plain[0].digest;
    let mismatches = plain
        .iter()
        .chain(&traced)
        .filter(|p| p.digest != reference)
        .count() as u64;

    let mut totals = LayerTotals::new(std::mem::take(&mut tracer.spans));
    totals.untraced_op_ms = plain.iter().map(|p| p.ms).collect();
    let mut report = Report::default();
    context(&mut report, args, rows, TRACED_PASSES);
    report.count("correctness_mismatches", mismatches);
    let metrics = layers::finish(&totals, &mut report, "batch_1m");
    Outcome {
        correct: mismatches == 0,
        attempted: TRACED_PASSES as u64,
        failed: mismatches,
        metrics,
        report,
    }
}
