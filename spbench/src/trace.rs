//! Spans recorded from the benchmark's own files around each call into a
//! layer's public API. A disabled [`Tracer`] records nothing, so the
//! untraced reps that give the end-to-end metrics pay one branch per call.

use crate::json::quote;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call, e.g. `fabricd::run_campaign`.
    pub name: &'static str,
    /// Offset from the tracer's creation.
    pub start: Duration,
    /// Offset from the tracer's creation.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which part of the run the span belongs to (`setup-3`, `traced`, ...).
    pub rep: String,
}

impl Span {
    /// Host time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder; spans nest through [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    workload: &'static str,
    /// Label stamped on every span opened from now on.
    pub rep: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, "")
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &'static str) -> Tracer {
        Tracer::new(true, workload)
    }

    fn new(on: bool, workload: &'static str) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            workload,
            rep: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            rep: self.rep.clone(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.t0.elapsed();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
        }
        out
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover. Spans
    /// are opened by one thread and nest, so children never overlap.
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans
            .get(id)
            .map_or(Duration::ZERO, |s| s.duration().saturating_sub(children))
    }

    /// For each span named `parent`, in order, the summed seconds of its
    /// descendants named `name`.
    pub fn sums_within(&self, parent: &str, name: &str) -> Vec<f64> {
        let under = |mut i: usize, p: usize| loop {
            match self.spans.get(i).and_then(|s| s.parent) {
                Some(q) if q == p => return true,
                Some(q) => i = q,
                None => return false,
            }
        };
        (0..self.spans.len())
            .filter(|&p| self.spans[p].name == parent)
            .map(|p| {
                (p + 1..self.spans.len())
                    .filter(|&i| self.spans[i].name == name && under(i, p))
                    .map(|i| self.spans[i].duration().as_secs_f64())
                    .sum()
            })
            .collect()
    }

    /// The spans as one JSON document, with each span's self time.
    pub fn to_json(&self, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            quote(self.workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"workload\": {}, \
                 \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                quote(s.name),
                quote(self.workload),
                quote(&s.rep),
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(i).as_nanos(),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::on("w");
        tr.rep = "traced".to_string();
        tr.span("outer", |tr| {
            busy(Duration::from_millis(2));
            tr.span("inner", |_| busy(Duration::from_millis(3)));
            tr.span("inner", |_| busy(Duration::from_millis(3)));
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        let inner: Duration = s[1].duration() + s[2].duration();
        assert_eq!(tr.self_time(0), s[0].duration() - inner);
        assert!(tr.self_time(0) >= Duration::from_millis(2));
        let sums = tr.sums_within("outer", "inner");
        assert_eq!(sums.len(), 1);
        assert!((sums[0] - inner.as_secs_f64()).abs() < 1e-12);

        let doc = Json::parse(&tr.to_json(7)).expect("trace is JSON");
        let spans = doc.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("rep").and_then(Json::as_str), Some("traced"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 5)), 5);
        assert!(tr.spans().is_empty());
    }
}
