//! The traced run's span recorder.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name (`<layer>.<call>`), the op it belongs to, the span that was open
//! when it started, and its start and end on one monotonic clock. Spans stay
//! in memory and are written out once, at exit. A disabled tracer records
//! nothing and only calls through, so the untraced run pays one branch per
//! call site.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `query.apply_batch`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans recorded under the name.
    pub count: usize,
    /// Median wall time, ms.
    pub p50_ms: f64,
    /// Median self time (wall time minus the time child spans cover), ms.
    pub p50_self_ms: f64,
    /// Total wall time, ms.
    pub total_ms: f64,
    /// Total self time, ms.
    pub total_self_ms: f64,
}

/// Records spans when enabled; calls straight through when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span recorded from now on with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall times (ms) of the spans named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Wall time (ms) of the spans named `name`, summed per op.
    pub fn ms_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut by_op = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(span.op).or_insert(0.0) += span.ms();
        }
        by_op
    }

    /// Median wall time (ms) of the spans named `name`; 0 when none.
    pub fn p50_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Per span: the nanoseconds its direct children cover. Children of one
    /// span never overlap, since every span is opened and closed on the
    /// benchmark's own thread.
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        covered
    }

    /// Self time (ms) of every span named `name`, in start order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let covered = self.child_ns();
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns - c) as f64 / 1e6)
            .collect()
    }

    /// The share of the wall time of spans named `name` that their children
    /// cover (0 when there are none).
    pub fn child_coverage(&self, name: &str) -> f64 {
        let covered = self.child_ns();
        let (mut wall, mut children) = (0u64, 0u64);
        for (span, &c) in self.spans.iter().zip(&covered) {
            if span.name == name {
                wall += span.end_ns - span.start_ns;
                children += c;
            }
        }
        if wall == 0 {
            0.0
        } else {
            children as f64 / wall as f64
        }
    }

    /// Count, median and total wall and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let covered = self.child_ns();
        let mut walls: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, &c) in self.spans.iter().zip(&covered) {
            let entry = walls.entry(span.name).or_default();
            entry.0.push(span.ms());
            entry.1.push((span.end_ns - span.start_ns - c) as f64 / 1e6);
        }
        walls
            .into_iter()
            .map(|(name, (wall, own))| {
                let summary = SpanSummary {
                    count: wall.len(),
                    p50_ms: median(&wall),
                    p50_self_ms: median(&own),
                    total_ms: wall.iter().sum(),
                    total_self_ms: own.iter().sum(),
                };
                (name, summary)
            })
            .collect()
    }

    /// The spans as tab-separated lines:
    /// `index, name, op, parent (-1 for none), start_ns, end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\top\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("a", |tr| tr.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        tr.span("op", |tr| {
            tr.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("child", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        let own = tr.self_ms("op")[0];
        let wall = tr.durations_ms("op")[0];
        let children: f64 = tr.durations_ms("child").iter().sum();
        assert!((wall - own - children).abs() < 1e-6);
        assert!(tr.child_coverage("op") > 0.5);
        assert_eq!(tr.summary()["child"].count, 2);
        assert_eq!(tr.to_tsv().lines().count(), 4);
    }
}
