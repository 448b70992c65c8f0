//! In-memory span recording for the traced lane, self-time computation, and
//! the span dump written once at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer function, when, and under which operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans against a shared epoch; one tracer per client thread,
/// merged after the lane ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Time `f` as a span named `name` under operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            op,
        });
        out
    }

    /// Record a span whose ends the caller measured itself.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            op,
        });
    }
}

/// The call structure the hub and the publisher impose: which recorded
/// layer calls run inside which. A span's self time is its duration minus
/// the durations of its children within the same operation.
pub fn parents_of(name: &str) -> &'static [&'static str] {
    match name {
        "session.apply" | "wal.append" => &["hub.apply", "hub.apply.plain", "hub.apply.checkpoint"],
        "data.apply_delta" | "anon.refresh" => &["session.apply"],
        "anon.snapshot" => &["session.apply", "publish"],
        "anon.plant" => &["publish"],
        "knowledge.fold" | "knowledge.estimate" => &["hub.audit_against", "pass"],
        "privacy.audit_cold" => &["hub.audit_against", "pass"],
        "privacy.audit_incremental" | "privacy.audit_cached" => {
            &["hub.audit_with", "hub.audit_against"]
        }
        "publish" | "privacy.tcloseness" | "data.group_by" => &["pass"],
        _ => &[],
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ms: f64,
    /// Self time of each span, in recording order.
    pub self_ms: Vec<f64>,
}

/// Self time of every span: its duration minus the summed durations of the
/// spans nested under it (per [`parents_of`]) in the same operation.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for op_spans in by_op.values() {
        for s in op_spans {
            let children: f64 = op_spans
                .iter()
                .filter(|c| parents_of(c.name).contains(&s.name))
                .map(|c| c.ms())
                .sum();
            let stats = out.entry(s.name).or_default();
            stats.count += 1;
            stats.total_ms += s.ms();
            stats.self_ms.push(s.ms() - children);
        }
    }
    out
}

/// Write every span as one tab-separated line (`op name start_ns end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_op_only() {
        let spans = [
            span("hub.apply.plain", 1, 0, 10_000_000),
            span("session.apply", 1, 0, 6_000_000),
            span("data.apply_delta", 1, 0, 1_000_000),
            span("wal.append", 1, 0, 2_000_000),
            // Another op's child must not be charged to op 1.
            span("wal.append", 2, 0, 5_000_000),
        ];
        let stats = self_times(&spans);
        assert_eq!(stats["hub.apply.plain"].self_ms, vec![2.0]);
        assert_eq!(stats["session.apply"].self_ms, vec![5.0]);
        assert_eq!(stats["wal.append"].count, 2);
        assert_eq!(stats["wal.append"].total_ms, 7.0);
    }

    #[test]
    fn tracer_records_named_spans() {
        let mut t = Tracer::new(Instant::now());
        let v = t.span("knowledge.fold", 3, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].op, 3);
    }
}
