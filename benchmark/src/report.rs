//! From launch records to `result.json`, the printed report, the final
//! JSON line, and `compare`.

use crate::json::Json;
use crate::metrics::{END_TO_END, LAYERS, WORKLOADS};
use crate::stats;

/// A value with the HulC interval of its per-launch estimates.
fn with_interval(value: f64, unit: &str, per_launch: &[f64]) -> Json {
    let (lo, hi) = stats::interval(per_launch);
    Json::obj()
        .set("value", value)
        .set("unit", unit)
        .set("lo", lo)
        .set("hi", hi)
        .set("per_launch", per_launch)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Aggregate one workload's untraced launches (and its traced one, when
/// there is one) into its entry of `result.json`.
pub fn aggregate(name: &str, launches: &[Json], traced: Option<&Json>) -> Json {
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut failures: Vec<Json> = Vec::new();
    for rec in launches.iter().chain(traced) {
        attempted += rec.num("attempted").unwrap_or(0.0);
        failed += rec.num("failed").unwrap_or(0.0);
        failures.extend(rec.arr("failures").iter().cloned());
    }
    // Determinism guard across launches: same seed, same counts, same
    // output digest — in every launch, traced or not.
    let first = &launches[0];
    for rec in launches[1..].iter().chain(traced) {
        if rec.get("counts") != first.get("counts") || rec.get("digest") != first.get("digest") {
            failed += 1.0;
            failures.push(
                Json::obj()
                    .set("name", "nondeterministic-count")
                    .set("detail", "counts or output digest differ between launches"),
            );
        }
    }

    let per_launch = |f: &dyn Fn(&Json) -> f64| -> Vec<f64> { launches.iter().map(f).collect() };
    let pooled_ms: Vec<f64> = launches
        .iter()
        .flat_map(|r| r.nums("op_ns"))
        .map(ms)
        .collect();
    let pooled_sorted = stats::sorted(pooled_ms.clone());
    let quiet_per_launch =
        per_launch(&|r| stats::quantile_of(&r.nums("op_ns"), stats::QUIET_Q) / 1e6);
    let setup_per_launch = per_launch(&|r| stats::median(&r.nums("setup_s")));
    let counts = first.get("counts").cloned().unwrap_or(Json::Null);
    let model_cost = counts.num("model_cost").unwrap_or(f64::NAN);

    let mut e2e = Json::obj();
    for m in &END_TO_END {
        let entry = match m.name {
            "setup_s" => with_interval(stats::median(&setup_per_launch), m.unit, &setup_per_launch),
            "op_ms_quiet" => with_interval(
                stats::quantile(&pooled_sorted, stats::QUIET_Q),
                m.unit,
                &quiet_per_launch,
            ),
            "model_cost" => with_interval(model_cost, m.unit, &vec![model_cost; launches.len()]),
            field => {
                let values = per_launch(&|r| r.num(field).unwrap_or(f64::NAN));
                with_interval(stats::median(&values), m.unit, &values)
            }
        };
        e2e = e2e.set(m.name, entry);
    }

    let (spread_lo, spread_hi) = stats::interval(&quiet_per_launch);
    let tail = stats::tail_pct(pooled_sorted.len());
    let mean = stats::mean(&pooled_ms);
    let ref_ms: Vec<f64> = launches
        .iter()
        .flat_map(|r| r.nums("ref_ns"))
        .map(ms)
        .collect();
    let untraced_quiet = stats::quantile(&pooled_sorted, stats::QUIET_Q);
    let mut bench = vec![
        ("bench.samples", pooled_sorted.len() as f64),
        ("bench.op_ms_p50", stats::quantile(&pooled_sorted, 0.5)),
        (
            "bench.op_ms_tail",
            stats::quantile(&pooled_sorted, tail / 100.0),
        ),
        ("bench.tail_pct", tail),
        ("bench.op_ms_mean", mean),
        ("bench.ops_per_s", 1e3 / mean),
        (
            "bench.cpu_ms_per_op",
            stats::median(&per_launch(&|r| r.num("cpu_ms_per_op").unwrap_or(f64::NAN))),
        ),
        ("bench.launch_spread", spread_hi / spread_lo),
        ("bench.ref_ms_p50", stats::median(&ref_ms)),
    ];

    // Per-layer metrics: observed and probed values of the traced launch,
    // exact counts from its record, 0 where this workload bypasses the
    // layer, `bench.*` from the untraced launches.
    let mut layers = Json::obj();
    if let Some(t) = traced {
        let traced_quiet = stats::quantile_of(&t.nums("op_ns"), stats::QUIET_Q) / 1e6;
        bench.push((
            "bench.trace_overhead_pct",
            (traced_quiet / untraced_quiet - 1.0) * 100.0,
        ));
        let c = t.get("counts").cloned().unwrap_or(Json::Null);
        let count = |k: &str| c.num(k).unwrap_or(f64::NAN);
        for l in &LAYERS {
            let value = if l.name.starts_with("bench.") {
                bench.iter().find(|(n, _)| *n == l.name).map(|(_, v)| *v)
            } else if !l.on.contains(&name) {
                Some(0.0)
            } else {
                match l.name {
                    "simulator.rounds_per_op" => Some(count("rounds")),
                    "simulator.ledger_entries_per_op" => Some(count("ledger_entries")),
                    "runtime.supersteps_per_op" => Some(count("supersteps")),
                    "query.iterative.iterations" => Some(count("iterations")),
                    "query.iterative.supersteps" => Some(count("iter_supersteps")),
                    "query.service.cache_hit_ratio" => {
                        Some(count("cache_hits") / count("cache_lookups"))
                    }
                    "workloads.generate_ms" => t.num("generate_ms"),
                    other => t.get("layers").and_then(|o| o.num(other)),
                }
            };
            layers = layers.set(l.name, value.map_or(Json::Null, Json::Num));
        }
    }
    let mut bench_json = Json::obj();
    for (k, v) in bench {
        bench_json = bench_json.set(k, v);
    }

    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    Json::obj()
        .set("why", why)
        .set("sizes", first.get("sizes").cloned().unwrap_or(Json::Null))
        .set("launches", launches.len())
        .set("coverage", stats::coverage(launches.len()))
        .set("attempted", attempted)
        .set("failed", failed)
        .set("failures", failures)
        .set("counts", counts)
        .set("end_to_end", e2e)
        .set("bench", bench_json)
        .set("layers", layers)
}

/// Value of end-to-end metric `name` in a workload's entry.
fn e2e_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("end_to_end")?.get(name)?.num("value")
}

/// Value of per-layer metric `name` in a workload's entry.
fn layer_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("layers")?.num(name)
}

/// Names of metrics that should have a finite value and do not.
pub fn missing_metrics(workload: &Json, traced: bool) -> Vec<String> {
    let absent = |v: Option<f64>| !v.is_some_and(f64::is_finite);
    let mut missing: Vec<String> = END_TO_END
        .iter()
        .filter(|m| absent(e2e_value(workload, m.name)))
        .map(|m| m.name.to_string())
        .collect();
    if traced {
        missing.extend(
            LAYERS
                .iter()
                .filter(|l| absent(layer_value(workload, l.name)))
                .map(|l| l.name.to_string()),
        );
    }
    missing
}

/// The last line a single-workload run prints: every end-to-end metric,
/// or (traced) every per-layer metric.
pub fn final_line(workload: &Json, traced: bool) -> Json {
    let entry = |value: Option<f64>, unit: &str| {
        Json::obj()
            .set("value", value.map_or(Json::Null, Json::Num))
            .set("unit", unit)
    };
    let mut out = Json::obj();
    if traced {
        for l in &LAYERS {
            out = out.set(l.name, entry(layer_value(workload, l.name), l.unit));
        }
    } else {
        for m in &END_TO_END {
            out = out.set(m.name, entry(e2e_value(workload, m.name), m.unit));
        }
    }
    let failed = workload.num("failed").unwrap_or(1.0);
    Json::obj()
        .set(
            "correct",
            failed == 0.0 && missing_metrics(workload, traced).is_empty(),
        )
        .set("attempted", workload.num("attempted").unwrap_or(0.0))
        .set("failed", failed)
        .set("metrics", out)
}

fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "missing".into()
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Human-readable report of one workload's entry.
pub fn render(name: &str, w: &Json) -> String {
    let mut out = format!(
        "== {name}: {} attempted, {} failed, {} launches (interval coverage {})\n",
        w.num("attempted").unwrap_or(0.0),
        w.num("failed").unwrap_or(0.0),
        w.num("launches").unwrap_or(0.0),
        w.num("coverage").unwrap_or(0.0),
    );
    for f in w.arr("failures") {
        out.push_str(&format!(
            "   FAILED {}: {}\n",
            f.str("name").unwrap_or("?"),
            f.str("detail").unwrap_or("")
        ));
    }
    for m in &END_TO_END {
        if let Some(e) = w.get("end_to_end").and_then(|e| e.get(m.name)) {
            out.push_str(&format!(
                "   {:<18} {:>14} {:<10} [{} .. {}]  bound {:.0}%\n",
                m.name,
                fmt(e.num("value").unwrap_or(f64::NAN)),
                m.unit,
                fmt(e.num("lo").unwrap_or(f64::NAN)),
                fmt(e.num("hi").unwrap_or(f64::NAN)),
                m.bound * 100.0,
            ));
        }
    }
    for (k, v) in w.get("bench").map_or(&[][..], Json::fields) {
        if let Json::Num(v) = v {
            let unit = LAYERS.iter().find(|l| l.name == k).map_or("", |l| l.unit);
            out.push_str(&format!("   {k:<28} {:>14} {unit}\n", fmt(*v)));
        }
    }
    // Only the layers this workload runs; the rest read 0 by definition.
    for l in LAYERS
        .iter()
        .filter(|l| l.on.contains(&name) && !l.name.starts_with("bench."))
    {
        if let Some(v) = w.get("layers").and_then(|o| o.get(l.name)) {
            let value = match v {
                Json::Num(n) => fmt(*n),
                _ => "missing".into(),
            };
            out.push_str(&format!(
                "   {:<34} {:>14} {:<6} -> {}\n",
                l.name, value, l.unit, l.moves
            ));
        }
    }
    out
}

/// Verdict of one metric of one workload between a baseline and a
/// candidate. Every end-to-end metric is lower-is-better.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Beyond the bound, and every candidate launch reads worse than
    /// every baseline launch.
    Worse,
    /// Beyond the bound, but the `[lo, hi]` intervals overlap.
    Unresolved,
}

pub fn verdict(base: (f64, f64, f64), cand: (f64, f64, f64), bound: f64) -> Verdict {
    let ((a, _, a_hi), (b, b_lo, _)) = (base, cand);
    if b <= a * (1.0 + bound) {
        Verdict::Ok
    } else if b_lo <= a_hi {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

/// Compare two `result.json` documents; returns the printed table and
/// the number of `worse` verdicts.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut out = format!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut worse = 0;
    let triple = |doc: &Json, w: &str, m: &str| {
        let e = doc.get("workloads")?.get(w)?.get("end_to_end")?.get(m)?;
        Some((e.num("value")?, e.num("lo")?, e.num("hi")?))
    };
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(base), Some(cand)) = (triple(a, w.name, m.name), triple(b, w.name, m.name))
            else {
                continue;
            };
            let v = verdict(base, cand, m.bound);
            worse += usize::from(v == Verdict::Worse);
            out.push_str(&format!(
                "{:<12} {:<16} {:>14} {:>14} {:>9.4} {:>5.0}%  {}\n",
                w.name,
                m.name,
                fmt(base.0),
                fmt(cand.0),
                cand.0 / base.0,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    (out, worse)
}

/// Every metric by name: unit, direction, bound, and what it is or what
/// it should move.
pub fn glossary() -> String {
    let mut out = String::from("end-to-end (every workload; lower is better)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<34} {:<10} bound {:>3.0}%  {}\n",
            m.name,
            m.unit,
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str("per-layer (traced launch; 0 on workloads that bypass the layer)\n");
    for l in &LAYERS {
        out.push_str(&format!(
            "  {:<34} {:<6} {:<6} on {:<44} -> {}\n",
            l.name,
            l.unit,
            if l.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            l.on.join(", "),
            l.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_needs_separated_intervals_to_call_worse() {
        // Within the bound.
        assert_eq!(
            verdict((10.0, 9.5, 10.5), (10.9, 10.0, 11.5), 0.10),
            Verdict::Ok
        );
        // Better is always ok.
        assert_eq!(
            verdict((10.0, 9.5, 10.5), (5.0, 4.0, 6.0), 0.10),
            Verdict::Ok
        );
        // Beyond the bound, intervals overlap: the runs cannot tell.
        assert_eq!(
            verdict((10.0, 9.0, 12.5), (12.0, 11.0, 13.0), 0.10),
            Verdict::Unresolved
        );
        // Beyond the bound, every candidate launch above every baseline one.
        assert_eq!(
            verdict((10.0, 9.5, 10.5), (12.0, 11.5, 12.5), 0.10),
            Verdict::Worse
        );
        // An exact count that moved at all is worse.
        assert_eq!(
            verdict((100.0, 100.0, 100.0), (100.5, 100.5, 100.5), 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict((100.0, 100.0, 100.0), (100.0, 100.0, 100.0), 0.0),
            Verdict::Ok
        );
    }

    fn record(op_ns: &[f64], setup_s: &[f64], digest: &str) -> Json {
        Json::obj()
            .set("attempted", op_ns.len() + 4)
            .set("failed", 0u64)
            .set("failures", Json::Arr(vec![]))
            .set(
                "counts",
                Json::obj().set("model_cost", 42.5).set("rounds", 7u64),
            )
            .set("digest", digest)
            .set("setup_s", setup_s)
            .set("op_ns", op_ns)
            .set("ref_ns", &[2.0e5, 2.2e5][..])
            .set("cpu_ms_per_op", 1.0)
            .set("allocs_per_op", 100.0)
            .set("alloc_kb_per_op", 12.5)
            .set("peak_rss_mb", 30.0)
            .set("sizes", Json::obj())
    }

    #[test]
    fn aggregate_pools_samples_and_reports_min_max_intervals() {
        let a = record(&[1.0e6, 1.1e6, 1.2e6, 9.0e6], &[0.010, 0.012, 0.011], "d1");
        let b = record(&[2.0e6, 2.1e6, 2.2e6, 2.3e6], &[0.020, 0.022, 0.021], "d1");
        let w = aggregate("scan-join", &[a, b], None);
        assert_eq!(w.num("failed"), Some(0.0));
        assert_eq!(w.num("attempted"), Some(16.0));
        let quiet = w.get("end_to_end").unwrap().get("op_ms_quiet").unwrap();
        // Pooled p5 of eight samples sits just above the fastest one.
        assert!((quiet.num("value").unwrap() - 1.035).abs() < 1e-9);
        assert!((quiet.num("lo").unwrap() - 1.015).abs() < 1e-9);
        assert!((quiet.num("hi").unwrap() - 2.015).abs() < 1e-9);
        let setup = w.get("end_to_end").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.num("lo"), Some(0.011));
        assert_eq!(setup.num("hi"), Some(0.021));
        assert_eq!(
            w.get("end_to_end")
                .unwrap()
                .get("model_cost")
                .unwrap()
                .num("value"),
            Some(42.5)
        );
        assert!(missing_metrics(&w, false).is_empty());
        let line = final_line(&w, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn launches_that_disagree_are_a_nondeterministic_count_failure() {
        let a = record(&[1.0e6; 4], &[0.01], "d1");
        let b = record(&[1.0e6; 4], &[0.01], "d2");
        let w = aggregate("scan-join", &[a, b], None);
        assert_eq!(w.num("failed"), Some(1.0));
        assert_eq!(
            w.arr("failures")[0].str("name"),
            Some("nondeterministic-count")
        );
        assert_eq!(
            final_line(&w, false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
