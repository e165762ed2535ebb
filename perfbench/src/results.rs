//! The result documents a run prints and writes, and the comparison of
//! two of them.

use crate::host::Fingerprint;
use crate::json::Json;
use crate::stats;

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
pub fn summary(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The full result file: the host fingerprint and run details, then the
/// summary's fields.
pub fn document(host: &Fingerprint, mut detail: Vec<(String, Json)>, summary: &Json) -> Json {
    detail.insert(0, ("host".into(), host.to_json()));
    if let Json::Obj(fields) = summary {
        detail.extend(fields.iter().cloned());
    }
    Json::Obj(detail)
}

/// Per-metric change from result `a` to result `b`. Refuses when the
/// two were measured on different hosts (CPU model, logical CPUs or
/// compiler differ): their numbers cannot be compared.
pub fn compare(a: &Json, b: &Json) -> Result<String, String> {
    let host = |j: &Json, side: &str| {
        j.get("host")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| format!("{side}: no host fingerprint"))
    };
    let (ha, hb) = (host(a, "A")?, host(b, "B")?);
    if ha.host_key() != hb.host_key() {
        return Err(format!(
            "refusing to compare results from different hosts:\n  A {:?}\n  B {:?}",
            ha.host_key(),
            hb.host_key()
        ));
    }
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    if field(a, "workload") != field(b, "workload") {
        return Err(format!(
            "refusing to compare workload {} with workload {}",
            field(a, "workload"),
            field(b, "workload")
        ));
    }
    let (Some(Json::Obj(ma)), Some(mb)) = (a.get("metrics"), b.get("metrics")) else {
        return Err("a result has no metrics".into());
    };
    let mut out = format!("{} {} -> {}\n", field(a, "workload"), ha.commit, hb.commit);
    for (name, va) in ma {
        let x = va.get("value").and_then(Json::as_f64);
        let y = mb
            .get(name)
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64);
        let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
        match (x, y) {
            (Some(x), Some(y)) if x != 0.0 => {
                let change = (y - x) / x.abs() * 100.0;
                out += &format!("{name:<36} {x:>16.4} {y:>16.4} {unit:<6} {change:+8.2}%\n");
            }
            (Some(x), Some(y)) => out += &format!("{name:<36} {x:>16.4} {y:>16.4} {unit}\n"),
            _ => out += &format!("{name:<36} missing on one side\n"),
        }
    }
    Ok(out)
}

/// Run-to-run spread of every metric over results of one workload: the
/// median, the quartiles (as Python's `statistics.quantiles(v, n=4)`)
/// and the interquartile range as a share of the median.
pub fn spread(docs: &[Json]) -> Result<String, String> {
    if docs.len() < 2 {
        return Err("spread needs at least two results".into());
    }
    let Some(Json::Obj(first)) = docs[0].get("metrics") else {
        return Err("a result has no metrics".into());
    };
    let workload = |d: &Json| d.get("workload").and_then(Json::as_str).map(str::to_string);
    if docs.iter().any(|d| workload(d) != workload(&docs[0])) {
        return Err("spread takes results of one workload".into());
    }
    let mut out = format!(
        "{} over {} runs\n",
        workload(&docs[0]).unwrap_or_default(),
        docs.len()
    );
    for (name, _) in first {
        let values: Option<Vec<f64>> = docs
            .iter()
            .map(|d| d.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let values = values.ok_or_else(|| format!("{name} is missing from a result"))?;
        let (q1, q3) = stats::quartiles(&values);
        out += &format!(
            "{name:<36} median {:>16.4}  q1 {q1:>16.4}  q3 {q3:>16.4}  spread {:.4}\n",
            stats::median(&values),
            stats::relative_spread(&values)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cpu: &str, commit: &str) -> Fingerprint {
        Fingerprint {
            cpu_model: cpu.into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            commit: commit.into(),
        }
    }

    fn doc(cpu: &str, commit: &str, p50: f64) -> Json {
        let s = summary(
            1000,
            0,
            &[
                metric("op_ns.p50", p50, "ns"),
                metric("setup_s", 0.8127, "s"),
            ],
        );
        let detail = vec![("workload".to_string(), Json::Str("reuse-hot".into()))];
        document(&host(cpu, commit), detail, &s)
    }

    #[test]
    fn summary_line_has_exactly_the_four_keys() {
        let s = summary(10, 1, &[metric("latency_ms", 1.2034, "ms")]);
        let Json::Obj(fields) = &s else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(s.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn result_document_round_trips_through_text() {
        let d = doc("Intel(R) Xeon(R) Processor", "abc123", 1_263.896_812_345);
        let text = d.render();
        let back = Json::parse(&text).expect("writer output parses");
        assert_eq!(back, d);
        assert_eq!(
            Fingerprint::from_json(back.get("host").unwrap()),
            Some(host("Intel(R) Xeon(R) Processor", "abc123"))
        );
        let p50 = back
            .get("metrics")
            .and_then(|m| m.get("op_ns.p50"))
            .and_then(|v| v.get("value"));
        assert_eq!(p50.and_then(Json::as_f64), Some(1_263.896_812_345));
    }

    #[test]
    fn compare_reports_changes_on_one_host() {
        let report =
            compare(&doc("cpu", "old", 1000.0), &doc("cpu", "new", 900.0)).expect("same host");
        assert!(report.contains("old -> new"), "{report}");
        assert!(report.contains("-10.00%"), "{report}");
    }

    #[test]
    fn spread_uses_the_interquartile_range() {
        let docs: Vec<Json> = (1..=10).map(|i| doc("cpu", "c", f64::from(i))).collect();
        let report = spread(&docs).expect("one workload");
        assert!(report.contains("spread 1.0000"), "{report}");
        assert!(spread(&docs[..1]).is_err());
    }

    #[test]
    fn compare_refuses_different_hosts() {
        let err = compare(&doc("cpu A", "x", 1000.0), &doc("cpu B", "x", 1000.0)).unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
    }
}
