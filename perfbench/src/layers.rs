//! Per-layer metrics from a traced lane's spans: the report of every layer
//! call a workload makes, and the result-line subset every workload emits.

use crate::common::work_dir;
use crate::report::{mean, percentile, Dist, Ratio, Report};
use crate::trace::{self, Span};

/// Hub-level (or pass-level) operations: the spans whose traced durations
/// are compared with the untraced lane for the tracing overhead.
const OP_SPANS: &[&str] = &[
    "hub.apply",
    "hub.apply.plain",
    "hub.apply.checkpoint",
    "hub.audit_against",
    "hub.audit_with",
    "pass",
];

/// Layer calls reported as mean milliseconds per call, when the workload
/// makes them.
const MEAN_MS: &[(&str, &str)] = &[
    ("data.apply_delta_ms", "data.apply_delta"),
    ("data.group_by_ms", "data.group_by"),
    ("anon.plant_ms", "anon.plant"),
    ("anon.refresh_ms", "anon.refresh"),
    ("anon.snapshot_ms", "anon.snapshot"),
    ("knowledge.fold_ms", "knowledge.fold"),
    ("knowledge.estimate_ms", "knowledge.estimate"),
    ("privacy.audit_cold_ms", "privacy.audit_cold"),
    ("privacy.audit_incremental_ms", "privacy.audit_incremental"),
    ("privacy.audit_cached_ms", "privacy.audit_cached"),
    ("privacy.tcloseness_ms", "privacy.tcloseness"),
    ("session.apply_ms", "session.apply"),
    ("hub.apply_plain_ms", "hub.apply.plain"),
    ("hub.apply_checkpoint_ms", "hub.apply.checkpoint"),
];

/// Everything a traced lane measured.
#[derive(Default)]
pub struct LayerTotals {
    pub spans: Vec<Span>,
    pub dirty: Ratio,
    pub intern: Ratio,
    pub evictions: u64,
    pub rehydrations: u64,
    /// Hub operations replayed, and those served without a rehydration.
    pub hub_ops: u64,
    pub warm_ops: u64,
    pub records_replayed: u64,
    /// Operation times of the untraced lane over the same script.
    pub untraced_op_ms: Vec<f64>,
    /// Hub operations that advanced the rehydration counter.
    pub rehydrating_ms: Vec<f64>,
}

impl LayerTotals {
    pub fn new(spans: Vec<Span>) -> Self {
        LayerTotals {
            spans,
            ..LayerTotals::default()
        }
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.durations(name))
    }
}

/// Report every per-layer metric the lane produced, write the spans, and
/// return the per-layer result-line metrics (the ones every workload
/// measures, so every traced run emits all of them).
pub fn finish(
    t: &LayerTotals,
    report: &mut Report,
    workload: &str,
) -> Vec<(&'static str, f64, &'static str)> {
    let generate_s = mean(&t.durations("data.generate")) / 1e3;
    report.value("data.generate_s", generate_s, "s");
    for (metric, span) in MEAN_MS {
        let samples = t.durations(span);
        if !samples.is_empty() {
            report.value(metric, mean(&samples), "ms");
            report.count(&format!("{span}.calls"), samples.len() as u64);
        }
    }
    let wal = t.durations("wal.append");
    if !wal.is_empty() {
        // A refused percentile is left out here; the distribution entry
        // below names the refusal and the sample count.
        for (name, p) in [
            ("wal.append_fsync_p50_ms", 0.5),
            ("wal.append_fsync_p99_ms", 0.99),
        ] {
            if let Ok(v) = percentile(&wal, p) {
                report.value(name, v, "ms");
            }
        }
        report.dist("wal.append_fsync_ms", Dist::new("ms", wal, 0.99));
    }

    let selves = trace::self_times(&t.spans);
    let residual: Vec<f64> = ["hub.apply", "hub.apply.plain", "hub.apply.checkpoint"]
        .iter()
        .filter_map(|n| selves.get(n))
        .flat_map(|s| s.self_ms.iter().copied())
        .collect();
    if !residual.is_empty() {
        report.value("hub.apply_residual_ms", mean(&residual), "ms");
    }
    if !t.rehydrating_ms.is_empty() {
        report.dist(
            "hub.audit_rehydrating_ms",
            Dist::new("ms", t.rehydrating_ms.clone(), 0.99),
        );
    }
    for (name, stats) in &selves {
        report.value(&format!("self.{name}_ms"), mean(&stats.self_ms), "ms");
    }

    report.ratio("knowledge.intern_hit_ratio", t.intern);
    report.ratio("privacy.dirty_group_ratio", t.dirty);
    report.ratio("hub.warm_hit_rate", Ratio::new(t.warm_ops, t.hub_ops));
    report.count("hub.evictions", t.evictions);
    report.count("hub.rehydrations", t.rehydrations);
    report.count("recover.records_replayed", t.records_replayed);

    let traced_ops: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| OP_SPANS.contains(&s.name))
        .map(Span::ms)
        .collect();
    let overhead = mean(&traced_ops) - mean(&t.untraced_op_ms);
    report.value("trace.op_mean_ms", mean(&traced_ops), "ms");
    report.value("trace.untraced_op_mean_ms", mean(&t.untraced_op_ms), "ms");
    report.value("trace.overhead_ms", overhead, "ms");
    report.count("trace.spans", t.spans.len() as u64);

    let path = work_dir().join(format!("spans-{workload}.tsv"));
    if let Err(e) = trace::write_spans(&path, &t.spans) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }

    vec![
        ("data.generate_s", generate_s, "s"),
        ("anon.plant_ms", t.mean_ms("anon.plant"), "ms"),
        ("anon.snapshot_ms", t.mean_ms("anon.snapshot"), "ms"),
        ("knowledge.fold_ms", t.mean_ms("knowledge.fold"), "ms"),
        (
            "knowledge.estimate_ms",
            t.mean_ms("knowledge.estimate"),
            "ms",
        ),
        (
            "privacy.audit_cold_ms",
            t.mean_ms("privacy.audit_cold"),
            "ms",
        ),
        ("trace.overhead_ms", overhead, "ms"),
        ("knowledge.intern_hit_ratio", t.intern.value(), "ratio"),
        ("knowledge.intern_hits", t.intern.num as f64, "count"),
        ("knowledge.intern_lookups", t.intern.den as f64, "count"),
        ("privacy.dirty_group_ratio", t.dirty.value(), "ratio"),
        ("privacy.dirty_groups", t.dirty.num as f64, "count"),
        ("privacy.version_groups", t.dirty.den as f64, "count"),
        ("hub.evictions", t.evictions as f64, "count"),
        ("hub.rehydrations", t.rehydrations as f64, "count"),
        (
            "hub.warm_hit_rate",
            Ratio::new(t.warm_ops, t.hub_ops).value(),
            "ratio",
        ),
        ("hub.ops", t.hub_ops as f64, "count"),
        (
            "recover.records_replayed",
            t.records_replayed as f64,
            "count",
        ),
        ("trace.spans", t.spans.len() as f64, "count"),
    ]
}
