//! In-memory spans recorded by the benchmark around calls into the
//! program's public functions.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the op it belongs to; attributes are copied from the values the
//! call returned (`ServiceStats`, `ExecOutcome`, `Cost`). Nothing is
//! recorded inside the program: tracing the crates from within is a
//! later change. A layer's *self time* is its span minus the part of it
//! its child spans cover. With the tracer off (every untimed-for-trace
//! launch) `enter`/`exit`/`observe` are one branch each.

use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

const OFF: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder plus per-op named observations (the layer metrics the
/// workload derives from a span's duration or from returned stats).
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// `(op, metric name, value)`; values of one name add up within an op.
    observed: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            observed: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start the next op: later spans and observations carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(OFF);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            attrs: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span, attach `attrs`, and return its duration in
    /// nanoseconds (0 with the tracer off).
    pub fn exit(&mut self, id: SpanId, attrs: &[(&'static str, f64)]) -> u64 {
        if id.0 == OFF {
            return 0;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.attrs.extend_from_slice(attrs);
        while let Some(top) = self.open.pop() {
            if top == id.0 {
                break;
            }
        }
        span.dur_ns()
    }

    /// Add `value` to the current op's reading of layer metric `name`.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.observed.push((self.op, name, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per observed metric name, the per-op sums in op order.
    pub fn observations(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut out: Vec<(&'static str, Vec<(u64, f64)>)> = Vec::new();
        for &(op, name, value) in &self.observed {
            let series = match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, s)) => s,
                None => {
                    out.push((name, Vec::new()));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            match series.last_mut() {
                Some((last_op, sum)) if *last_op == op => *sum += value,
                _ => series.push((op, value)),
            }
        }
        out.into_iter()
            .map(|(n, s)| (n, s.into_iter().map(|(_, v)| v).collect()))
            .collect()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children are recorded by one thread inside their
/// parent, so they never overlap each other and the sum is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Per span name: how many were recorded, and the quiet quantile, median
/// and total of their durations and self times — the "where did the op's
/// time go" table of the trace file.
pub fn summary(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let rows = names
        .into_iter()
        .map(|name| {
            let of_name = || (0..spans.len()).filter(|&i| spans[i].name == name);
            let wall: Vec<f64> = of_name().map(|i| spans[i].dur_ns() as f64 / 1e3).collect();
            let selfs: Vec<f64> = of_name().map(|i| own[i] as f64 / 1e3).collect();
            Json::obj()
                .set("name", name)
                .set("count", wall.len())
                .set("wall_us_quiet", stats::quantile_of(&wall, stats::QUIET_Q))
                .set("wall_us_p50", stats::median(&wall))
                .set("self_us_quiet", stats::quantile_of(&selfs, stats::QUIET_Q))
                .set("self_us_p50", stats::median(&selfs))
                .set("self_us_total", selfs.iter().sum::<f64>())
        })
        .collect::<Vec<_>>();
    Json::Arr(rows)
}

/// The spans of ops `1..=max_ops` as JSON (the file keeps a readable
/// prefix; [`summary`] covers every op).
pub fn spans_json(spans: &[Span], max_ops: u64) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op <= max_ops)
            .map(|(i, s)| {
                let mut attrs = Json::obj();
                for &(k, v) in &s.attrs {
                    attrs = attrs.set(k, v);
                }
                Json::obj()
                    .set("id", i)
                    .set("name", s.name)
                    .set("op", s.op)
                    .set("parent", s.parent.map_or(Json::Null, Json::from))
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("self_ns", own[i])
                    .set("attrs", attrs)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // serve_as [0,100) ⊃ serve [10,90) ⊃ { plan [10,20), exec [20,85) }
        let spans = vec![
            span("serve_as", 0, 100, None),
            span("serve", 10, 90, Some(0)),
            span("plan", 10, 20, Some(1)),
            span("exec", 20, 85, Some(1)),
            span("other_root", 200, 230, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 5, 10, 65, 30]);
        // Self times of a tree add up to the root's wall time.
        assert_eq!(self_times_ns(&spans)[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_sums_observations_per_op() {
        let mut tr = Tracer::new(true);
        for _ in 0..2 {
            tr.next_op();
            let outer = tr.enter("outer");
            let inner = tr.enter("inner");
            tr.exit(inner, &[("rows", 3.0)]);
            tr.observe("hit_us", 1.5);
            tr.observe("hit_us", 2.0);
            let sibling = tr.enter("inner");
            tr.exit(sibling, &[]);
            tr.exit(outer, &[]);
            tr.observe("miss_us", 7.0);
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[4].op, 2);
        assert_eq!(spans[1].attrs, vec![("rows", 3.0)]);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(
            tr.observations(),
            vec![("hit_us", vec![3.5, 3.5]), ("miss_us", vec![7.0, 7.0])]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.next_op();
        let id = tr.enter("x");
        assert_eq!(tr.exit(id, &[("a", 1.0)]), 0);
        tr.observe("m", 1.0);
        assert!(tr.spans().is_empty() && tr.observations().is_empty());
    }
}
