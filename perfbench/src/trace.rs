//! In-memory span and sample recorder for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent span, and one id per query or run). A
//! disabled tracer records nothing, so untraced rounds run the same code
//! with one branch per call site. Spans stay in memory until the run
//! ends, when [`Tracer::to_jsonl`] renders them for writing out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
struct Span {
    /// Layer-qualified name (`wms.run`, `serve.query`, ...).
    name: &'static str,
    /// Query or run id the span belongs to.
    id: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Client thread that recorded the span.
    thread: u32,
    /// Start, nanoseconds since the tracer epoch.
    start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Token returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span and sample recorder of one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Parent, in the creating tracer, of this tracer's top-level spans.
    adopt: Option<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            samples: BTreeMap::new(),
            adopt: None,
        }
    }

    /// A recording tracer for client thread `thread`, timed from `epoch`.
    pub fn on(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            thread,
            ..Tracer::off()
        }
    }

    /// A tracer for another client thread: recording if this one is. Its
    /// top-level spans become children of this tracer's innermost open
    /// span when merged back.
    pub fn child(&self, thread: u32) -> Tracer {
        if self.enabled {
            Tracer {
                adopt: self.stack.last().copied(),
                ..Tracer::on(self.epoch, thread)
            }
        } else {
            Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Runs `f` inside a span, handing it the tracer for nested spans.
    pub fn span_with<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let open = self.begin(name, id);
        let out = f(self);
        self.end(open);
        out
    }

    /// Records one observation of a named quantity (a latency, a count).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Appends another thread's spans and samples.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let adopt = other.adopt;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(adopt);
            s
        }));
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Durations of every span called `name`, seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Observations recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part of its interval that its child spans cover. Children on other
    /// threads may overlap, so the covered part is their union.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, mut c) in self.spans.iter().zip(children) {
            c.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in c {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(s.name).or_insert(0.0) += s.seconds() - covered as f64 / 1e9;
        }
        out
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, then one `self` line with the self time
    /// of every span name and one `samples` line per sampled quantity
    /// (count, sum).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.thread, s.start_ns, s.end_ns
            );
        }
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        let _ = writeln!(out, "{{\"type\":\"self_s\",{}}}", selfs.join(","));
        for (name, values) in &self.samples {
            let _ = writeln!(
                out,
                "{{\"type\":\"samples\",\"name\":\"{name}\",\"count\":{},\"sum\":{}}}",
                values.len(),
                values.iter().sum::<f64>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now(), 0);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let selfs = t.self_times();
        let total = t.total_s("outer");
        assert!((selfs["outer"] + selfs["inner"] - total).abs() < 1e-9);
        assert!(selfs["inner"] >= 0.005);
    }

    #[test]
    fn overlapping_children_on_other_threads_count_once() {
        let mut t = Tracer::on(Instant::now(), 0);
        let outer = t.begin("outer", 1);
        let mut a = t.child(1);
        let mut b = t.child(2);
        let (oa, ob) = (a.begin("inner", 1), b.begin("inner", 2));
        std::thread::sleep(std::time::Duration::from_millis(5));
        a.end(oa);
        b.end(ob);
        t.merge(a);
        t.merge(b);
        t.end(outer);
        let selfs = t.self_times();
        assert!(selfs["outer"] >= 0.0);
        assert!(selfs["outer"] < t.total_s("outer") - 0.004);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("x", 0, || ());
        t.sample("y", 1.0);
        assert_eq!(t.span_count(), 0);
        assert!(t.samples("y").is_empty());
    }
}
