//! Harness-side spans: recorded only in this benchmark's own code,
//! around each call into a layer of the program.
//!
//! A span holds its name, start, end and parent. Spans stay in memory
//! until the run ends; a disabled tracer records nothing and only runs
//! the wrapped closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, such as `chain.dense`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes [`span`](Self::span) a
    /// plain call.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        self.spans
    }
}

/// Totals of the spans of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Entry {
    /// Spans recorded.
    pub calls: u64,
    /// Nanoseconds inside them.
    pub total_ns: u64,
    /// Nanoseconds inside them and not inside a child span.
    pub self_ns: u64,
    /// Whether any of them ran outside a `pass` span.
    pub outside_passes: bool,
}

/// Per-name span totals, accumulated over tracers.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Name → totals.
    pub by_name: BTreeMap<&'static str, Entry>,
    /// (parent name, name) → nanoseconds inside spans of that name
    /// directly under a span of that parent name.
    pub by_parent: BTreeMap<(&'static str, &'static str), u64>,
}

impl Totals {
    /// Adds `spans` (indices and parents local to one tracer).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        for (i, (span, children)) in spans.iter().zip(child_ns).enumerate() {
            let mut root = i;
            while let Some(parent) = spans[root].parent {
                root = parent;
            }
            let entry = self.by_name.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += span.ns();
            entry.self_ns += span.ns().saturating_sub(children);
            entry.outside_passes |= spans[root].name != "pass";
            if let Some(parent) = span.parent {
                *self
                    .by_parent
                    .entry((spans[parent].name, span.name))
                    .or_default() += span.ns();
            }
        }
    }

    /// Folds in another set of totals.
    pub fn merge(&mut self, other: &Totals) {
        for (name, e) in &other.by_name {
            let entry = self.by_name.entry(name).or_default();
            entry.calls += e.calls;
            entry.total_ns += e.total_ns;
            entry.self_ns += e.self_ns;
            entry.outside_passes |= e.outside_passes;
        }
        for (key, ns) in &other.by_parent {
            *self.by_parent.entry(*key).or_default() += ns;
        }
    }

    /// Total milliseconds inside spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |e| e.total_ns as f64 / 1e6)
    }

    /// Share of pass time, in percent, that no layer span covers: the
    /// self time of the harness's own spans (names without a dot).
    pub fn unattributed_pct(&self) -> f64 {
        let own: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| !name.contains('.'))
            .map(|(_, e)| e.self_ns)
            .sum();
        let pass_ms = self.total_ms("pass");
        if pass_ms > 0.0 {
            own as f64 / 1e6 / pass_ms * 100.0
        } else {
            0.0
        }
    }

    /// Prints calls, total and self milliseconds per span name, with
    /// each in-pass span's share of pass time.
    pub fn print_table(&self) {
        let pass_ms = self.total_ms("pass");
        println!(
            "    {:<22} {:>9} {:>12} {:>12} {:>7}",
            "span", "calls", "total ms", "self ms", "share"
        );
        for (name, e) in &self.by_name {
            let share = if e.outside_passes || pass_ms <= 0.0 {
                "outside passes".to_string()
            } else {
                format!("{:6.2}%", e.self_ns as f64 / 1e6 / pass_ms * 100.0)
            };
            println!(
                "    {name:<22} {:>9} {:>12.3} {:>12.3} {share:>7}",
                e.calls,
                e.total_ns as f64 / 1e6,
                e.self_ns as f64 / 1e6
            );
        }
        println!("    time under each parent span:");
        for ((parent, name), ns) in &self.by_parent {
            let parent_ms = self.total_ms(parent);
            println!(
                "    {parent:<16} {name:<22} {:>12.3} ms {:>6.2}%",
                *ns as f64 / 1e6,
                *ns as f64 / 1e6 / parent_ms * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| ()));
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let mut totals = Totals::default();
        totals.add(&spans);
        let root = totals.by_name["root"];
        assert_eq!(root.calls, 1);
        assert_eq!(root.self_ns, root.total_ns - spans[1].ns() - spans[2].ns());
        assert!(totals.total_ms("a") >= 2.0);
        assert!(totals.by_name["c"].outside_passes);
    }

    #[test]
    fn unattributed_is_the_harness_spans_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("pass", |t| {
            t.span("layer.x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            })
        });
        let mut totals = Totals::default();
        totals.add(&t.into_spans());
        let pass = totals.by_name["pass"];
        assert!(!totals.by_name["layer.x"].outside_passes);
        let want = pass.self_ns as f64 / pass.total_ns as f64 * 100.0;
        assert!((totals.unattributed_pct() - want).abs() < 1e-9);
        assert!(totals.unattributed_pct() < 50.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
