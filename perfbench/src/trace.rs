//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic over them.
//!
//! Spans are recorded only by the benchmark, around the public calls it
//! makes; nothing inside the program is instrumented. A layer whose work the
//! program reports as a duration (the exact verifier's
//! `TierStats::exact_verify_time`) enters as a synthetic child span of the
//! call that contains it, so its time is taken out of the caller's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The id handed out while tracing is disabled; closing it is a no-op.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// The span store of one run. Disabled tracers record nothing, so untraced
/// operations pay two branches per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        assert!(id != SpanId::NONE.0, "span store full");
        self.spans.push(Span {
            name,
            start,
            end,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            op,
        });
        SpanId(id)
    }

    /// Opens a span under `parent` ([`SpanId::NONE`] for a root).
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now();
        self.push(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now();
            self.spans[id.0 as usize].end = now;
        }
    }

    /// Records a synthetic child of `parent` covering `duration` from the
    /// parent's start (clipped to the parent): the program measured the time,
    /// the benchmark only places it.
    pub fn synthetic(&mut self, name: &'static str, parent: SpanId, duration: Duration) {
        if parent == SpanId::NONE {
            return;
        }
        let host = &self.spans[parent.0 as usize];
        let (start, op) = (host.start, host.op);
        let nanos = u64::try_from(duration.as_nanos()).expect("duration fits u64");
        let end = (start + nanos).min(host.end);
        self.push(name, parent, op, start, end);
    }

    /// Writes every span as a tab-separated line: id, parent (or -), op,
    /// name, start and end in nanoseconds since the run's epoch.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.op, span.name, span.start, span.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let host = &spans[p as usize];
            let (s, e) = (span.start.max(host.start), span.end.min(host.end));
            if s < e {
                children[p as usize].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            // Two overlapping children cover [10, 50); one runs past the
            // parent's end and is clipped to [90, 100).
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 130, Some(0)),
            // A grandchild counts against its own parent only.
            span("v", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 20, 40, 8]);
        let totals = self_time_by_name(&spans);
        assert_eq!(totals["op"], 50);
        assert_eq!(totals.values().sum::<u64>(), 50 + 22 + 20 + 40 + 8);
    }

    #[test]
    fn synthetic_children_are_clipped_and_disabled_tracing_records_nothing() {
        let mut tracer = Tracer::new();
        let none = tracer.open("op", SpanId::NONE, 0);
        tracer.synthetic("verify", none, Duration::from_millis(1));
        tracer.close(none);
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        let root = tracer.open("op", SpanId::NONE, 7);
        let call = tracer.open("map.first_fit", root, 7);
        tracer.close(call);
        tracer.close(root);
        tracer.synthetic("verify", call, Duration::from_secs(3600));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            (spans[2].start, spans[2].end),
            (spans[1].start, spans[1].end)
        );
        assert_eq!(self_times(spans)[1], 0);
        assert!(tracer.render().lines().count() == 4);
    }
}
