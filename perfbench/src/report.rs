//! Reporting helpers: percentiles that refuse thin tails, ratios that carry
//! their base counts, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the tail is too thin to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, refused when
/// fewer than [`MIN_BEYOND`] samples lie above the selected rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        let needed = ((MIN_BEYOND as f64) / (1.0 - p)).ceil() as usize;
        return Err(format!(
            "refused: {n} samples leave {beyond} beyond p{}, need {needed}",
            pct_label(p)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

fn pct_label(p: f64) -> String {
    let v = p * 100.0;
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Plain median (0 for no values), without the tail rule: the result
/// line's latencies and the medians of repeated set-ups and reopens.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A ratio printed together with the counts it was computed from. An
/// empty base reads as 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratio {
    pub num: u64,
    pub den: u64,
}

impl Ratio {
    pub fn new(num: u64, den: u64) -> Self {
        Ratio { num, den }
    }

    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// One entry of the report line: a scalar, a latency distribution or a
/// ratio with its base counts.
#[derive(Debug, Clone)]
pub enum Entry {
    Value { value: f64, unit: &'static str },
    Count(u64),
    Dist(Dist),
    Ratio(Ratio),
}

/// A latency distribution: mean and median plus one tail percentile, each
/// with the sample count behind it.
#[derive(Debug, Clone)]
pub struct Dist {
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub tail: f64,
}

impl Dist {
    pub fn new(unit: &'static str, samples: Vec<f64>, tail: f64) -> Self {
        Dist {
            unit,
            samples,
            tail,
        }
    }
}

/// Ordered `name → entry` report, rendered both as text lines and as one
/// JSON object.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, Entry)>,
}

impl Report {
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries
            .push((name.to_owned(), Entry::Value { value, unit }));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.entries.push((name.to_owned(), Entry::Count(value)));
    }

    pub fn dist(&mut self, name: &str, dist: Dist) {
        self.entries.push((name.to_owned(), Entry::Dist(dist)));
    }

    pub fn ratio(&mut self, name: &str, ratio: Ratio) {
        self.entries.push((name.to_owned(), Entry::Ratio(ratio)));
    }

    /// Human-readable lines, one per entry.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (name, entry) in &self.entries {
            let _ = match entry {
                Entry::Value { value, unit } => writeln!(out, "{name} = {value} {unit}"),
                Entry::Count(v) => writeln!(out, "{name} = {v} count"),
                Entry::Ratio(r) => writeln!(out, "{name} = {} ({}/{})", r.value(), r.num, r.den),
                Entry::Dist(d) => {
                    let p50 = percentile(&d.samples, 0.5);
                    let tail = percentile(&d.samples, d.tail);
                    writeln!(
                        out,
                        "{name} = mean {} {unit}, p50 {}, p{} {} (n={})",
                        mean(&d.samples),
                        show(&p50),
                        pct_label(d.tail),
                        show(&tail),
                        d.samples.len(),
                        unit = d.unit,
                    )
                }
            };
        }
        out
    }

    /// The report as one JSON object.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, entry)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let body = match entry {
                Entry::Value { value, unit } => {
                    format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
                }
                Entry::Count(v) => format!("{{\"value\": {v}, \"unit\": \"count\"}}"),
                Entry::Ratio(r) => format!(
                    "{{\"value\": {}, \"unit\": \"ratio\", \"num\": {}, \"den\": {}}}",
                    num(r.value()),
                    r.num,
                    r.den
                ),
                Entry::Dist(d) => format!(
                    "{{\"unit\": \"{}\", \"n\": {}, \"mean\": {}, \"p50\": {}, \"p{}\": {}}}",
                    d.unit,
                    d.samples.len(),
                    num(mean(&d.samples)),
                    json_pct(&percentile(&d.samples, 0.5)),
                    pct_label(d.tail),
                    json_pct(&percentile(&d.samples, d.tail)),
                ),
            };
            let _ = write!(out, "\"{name}\": {body}");
        }
        out.push('}');
        out
    }
}

fn show(p: &Result<f64, String>) -> String {
    match p {
        Ok(v) => v.to_string(),
        Err(e) => format!("({e})"),
    }
}

fn json_pct(p: &Result<f64, String>) -> String {
    match p {
        Ok(v) => num(*v),
        Err(e) => format!("\"{e}\""),
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot carry, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The benchmark's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{value, unit}` pair.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_needs_ten_samples_above_it() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&nineteen, 0.5).is_err());
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Ok(10.0));
    }

    #[test]
    fn tail_percentiles_refuse_thin_tails() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990.0));
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&samples, 0.95).is_err());
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), Ok(190.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn refusal_names_the_sample_count() {
        let err = percentile(&[1.0; 50], 0.99).unwrap_err();
        assert!(err.contains("50 samples"), "{err}");
        assert!(err.contains("need 1000"), "{err}");
    }

    #[test]
    fn ratios_print_their_base_counts() {
        let mut r = Report::default();
        r.ratio("hit_rate", Ratio::new(3, 4));
        r.ratio("empty", Ratio::new(0, 0));
        let json = r.json();
        assert!(
            json.contains(
                "\"hit_rate\": {\"value\": 0.75, \"unit\": \"ratio\", \"num\": 3, \"den\": 4}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"empty\": {\"value\": 0.0, \"unit\": \"ratio\", \"num\": 0, \"den\": 0}"
            ),
            "{json}"
        );
        assert!(r.text().contains("hit_rate = 0.75 (3/4)"));
    }

    #[test]
    fn distributions_print_sample_counts_and_refusals() {
        let mut r = Report::default();
        r.dist(
            "lat_ms",
            Dist::new("ms", (1..=30).map(f64::from).collect(), 0.99),
        );
        let json = r.json();
        assert!(json.contains("\"n\": 30"), "{json}");
        assert!(json.contains("\"p50\": 15.0"), "{json}");
        assert!(json.contains("\"p99\": \"refused: 30 samples"), "{json}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 7, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "0.0");
    }
}
