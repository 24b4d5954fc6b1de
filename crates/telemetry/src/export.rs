//! The span families of the Prometheus text page, rendered from a
//! [`TelemetrySnapshot`].
//!
//! The renderer is paired with [`validate_prometheus`], a
//! strict parser of the text exposition format used by the test suite
//! and CI to prove every rendered page round-trips: names and labels
//! well-formed, every sample under a declared `# TYPE` family, and
//! histogram bucket series cumulative with a terminal `+Inf` bucket
//! equal to `_count`.

use crate::registry::TelemetrySnapshot;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Renders a sample value: decimal notation, `+Inf`/`-Inf`/`NaN`.
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders one `{key="value"}` label block, escaping backslash, quote
/// and newline in the value.
fn label(key: &str, value: &str) -> String {
    let escaped = value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{{key}=\"{escaped}\"}}")
}

impl TelemetrySnapshot {
    /// Renders the span rows in the Prometheus text exposition format:
    /// the `gpm_span_count` / `gpm_span_seconds` /
    /// `gpm_span_self_seconds` counter families labelled by `;`-joined
    /// path (empty for an empty snapshot). Decision facts are not here:
    /// `gpm_harness::report::prometheus` prepends them from the trace
    /// summary. Output is deterministic and passes
    /// [`validate_prometheus`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let rows: Vec<(String, [String; 3])> = self
            .spans
            .iter()
            .map(|s| {
                let values = [
                    s.count.to_string(),
                    render_value(s.total_ns as f64 / 1e9),
                    render_value(s.self_ns as f64 / 1e9),
                ];
                (label("path", &s.path), values)
            })
            .collect();
        if rows.is_empty() {
            return out;
        }
        for (i, family) in [
            "gpm_span_count",
            "gpm_span_seconds",
            "gpm_span_self_seconds",
        ]
        .into_iter()
        .enumerate()
        {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (labels, values) in &rows {
                let _ = writeln!(out, "{family}{labels} {}", values[i]);
            }
        }
        out
    }
}

/// Summary returned by [`validate_prometheus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromStats {
    /// Declared `# TYPE` families.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
    /// Families declared as histograms.
    pub histograms: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_prom_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value {other:?}")),
    }
}

/// Parses one `{k="v",...}` label block, returning sorted pairs.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            break;
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {s:?}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value in {s:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {s:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {s:?}"))?;
        labels.push((key.to_string(), value));
        rest = &rest[end + 1..];
        if !rest.is_empty() && !rest.starts_with(',') {
            return Err(format!("junk after label value in {s:?}"));
        }
    }
    labels.sort();
    Ok(labels)
}

/// Strictly validates a Prometheus text exposition page.
///
/// Enforced: identifier charset for metric and label names, quoting and
/// escapes in label values, numeric sample values, every sample
/// belonging to a `# TYPE`-declared family (with `_bucket`/`_sum`/
/// `_count` suffixes resolving to a histogram family), no duplicate
/// family declarations or samples, and — per histogram label set —
/// cumulative non-decreasing buckets ending in `+Inf` whose value
/// equals the family's `_count`. Returns counts of what was parsed.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: HashMap<(String, String), f64> = HashMap::new();
    // (family, labels-minus-le) -> le -> cumulative count
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    let mut n_samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let ctx = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| ctx("TYPE without name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| ctx("TYPE without kind".into()))?;
                if !valid_name(name) {
                    return Err(ctx(format!("invalid family name {name:?}")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(ctx(format!("unknown family kind {kind:?}")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(ctx(format!("duplicate TYPE for {name:?}")));
                }
            }
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let (name_labels, value_ts) = match line.find('}') {
            Some(close) => (&line[..close + 1], line[close + 1..].trim_start()),
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| ctx(format!("sample without value: {line:?}")))?;
                (&line[..sp], line[sp..].trim_start())
            }
        };
        let (name, labels) = match name_labels.find('{') {
            Some(open) => {
                if !name_labels.ends_with('}') {
                    return Err(ctx(format!("unterminated label block in {line:?}")));
                }
                (
                    &name_labels[..open],
                    parse_labels(&name_labels[open + 1..name_labels.len() - 1]).map_err(&ctx)?,
                )
            }
            None => (name_labels, Vec::new()),
        };
        if !valid_name(name) {
            return Err(ctx(format!("invalid metric name {name:?}")));
        }
        let mut fields = value_ts.split_whitespace();
        let value = parse_prom_value(fields.next().ok_or_else(|| ctx("missing value".into()))?)
            .map_err(&ctx)?;
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| ctx(format!("invalid timestamp {ts:?}")))?;
        }
        if fields.next().is_some() {
            return Err(ctx(format!("trailing fields in {line:?}")));
        }

        // Resolve the family this sample belongs to.
        let family = if types.contains_key(name) {
            name.to_string()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
                .ok_or_else(|| ctx(format!("sample {name:?} has no TYPE family")))?;
            if types.get(base).map(String::as_str) != Some("histogram") {
                return Err(ctx(format!("sample {name:?} has no TYPE family")));
            }
            base.to_string()
        };
        let non_le: Vec<(String, String)> =
            labels.iter().filter(|(k, _)| k != "le").cloned().collect();
        let group = format!("{:?}", non_le);
        if name.ends_with("_bucket") && types.get(&family).map(String::as_str) == Some("histogram")
        {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| ctx(format!("{name:?} bucket without le label")))?;
            let le = parse_prom_value(&le.1).map_err(&ctx)?;
            buckets
                .entry((family.clone(), group.clone()))
                .or_default()
                .push((le, value));
        }
        if name.ends_with("_count") && types.get(&family).map(String::as_str) == Some("histogram") {
            counts.insert((family.clone(), group.clone()), value);
        }
        let key = (name.to_string(), format!("{:?}", labels));
        if samples.insert(key, value).is_some() {
            return Err(ctx(format!("duplicate sample {name:?} {labels:?}")));
        }
        n_samples += 1;
    }

    for ((family, group), mut series) in buckets {
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0f64;
        for (le, cum) in &series {
            if *cum < prev {
                return Err(format!(
                    "histogram {family:?} {group}: bucket le={le} count {cum} < previous {prev}"
                ));
            }
            prev = *cum;
        }
        let last = series
            .last()
            .filter(|(le, _)| le.is_infinite())
            .ok_or_else(|| format!("histogram {family:?} {group}: missing +Inf bucket"))?;
        if let Some(count) = counts.get(&(family.clone(), group.clone())) {
            if last.1 != *count {
                return Err(format!(
                    "histogram {family:?} {group}: +Inf bucket {} != _count {count}",
                    last.1
                ));
            }
        }
    }

    let histograms = types.values().filter(|k| *k == "histogram").count();
    Ok(PromStats {
        families: types.len(),
        samples: n_samples,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, SpanRow, Telemetry};

    fn populated() -> Telemetry {
        let t = Telemetry::new();
        {
            let _e = t.enter();
            let _outer = span("env.dispatch");
            let _inner = span("search.hill_climb");
        }
        t
    }

    #[test]
    fn span_families_escape_paths_and_validate() {
        let mut snap = populated().snapshot();
        snap.spans.push(SpanRow {
            path: "a b\"c\\".to_string(),
            count: 2,
            total_ns: 10,
            self_ns: 10,
        });
        let page = snap.to_prometheus();
        let stats = validate_prometheus(&page).expect("rendered page must validate");
        assert_eq!((stats.families, stats.samples), (3, 9), "{page}");
        assert!(page.contains("gpm_span_count{path=\"env.dispatch;search.hill_climb\"} 1"));
        assert!(page.contains("gpm_span_count{path=\"a b\\\"c\\\\\"} 2"));
    }

    #[test]
    fn empty_snapshot_renders_an_empty_valid_page() {
        let stats = validate_prometheus(&TelemetrySnapshot::default().to_prometheus()).unwrap();
        assert_eq!(stats.samples, 0);
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        for (page, why) in [
            ("gpm_x 1\n", "sample without TYPE"),
            ("# TYPE gpm_x counter\n0bad 1\n", "bad metric name"),
            ("# TYPE gpm_x counter\ngpm_x one\n", "bad value"),
            (
                "# TYPE gpm_x counter\ngpm_x 1\ngpm_x 2\n",
                "duplicate sample",
            ),
            (
                "# TYPE gpm_x counter\n# TYPE gpm_x gauge\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE gpm_x counter\ngpm_x{l=unquoted} 1\n",
                "unquoted label value",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"1\"} 5\ngpm_h_bucket{le=\"+Inf\"} 3\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"1\"} 5\n",
                "missing +Inf",
            ),
            (
                "# TYPE gpm_h histogram\ngpm_h_bucket{le=\"+Inf\"} 5\ngpm_h_count 4\n",
                "+Inf != count",
            ),
        ] {
            assert!(
                validate_prometheus(page).is_err(),
                "accepted bad page: {why}"
            );
        }
    }

    #[test]
    fn validator_accepts_labeled_histogram_groups() {
        let page = "\
# TYPE gpm_h histogram
gpm_h_bucket{shard=\"0\",le=\"1\"} 2
gpm_h_bucket{shard=\"0\",le=\"+Inf\"} 3
gpm_h_sum{shard=\"0\"} 1.5
gpm_h_count{shard=\"0\"} 3
gpm_h_bucket{shard=\"1\",le=\"1\"} 0
gpm_h_bucket{shard=\"1\",le=\"+Inf\"} 1
gpm_h_sum{shard=\"1\"} 9
gpm_h_count{shard=\"1\"} 1
";
        let stats = validate_prometheus(page).unwrap();
        assert_eq!(stats.samples, 8);
        assert_eq!(stats.histograms, 1);
    }
}
