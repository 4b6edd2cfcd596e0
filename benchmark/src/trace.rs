//! In-memory spans recorded around the benchmark's calls into the library.
//!
//! Nothing is written while a run measures; [`Tracer::write_files`] emits
//! the span list as JSON lines and as a Chrome trace once the run is over.
//! When disabled, [`Tracer::enter`] reads no clock and records nothing.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one repetition share `rep`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub rep: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that closed: how long it lasted and how much of that interval no
/// child span covered.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    pub duration_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    rep: u32,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the time its closed children
    /// covered so far.
    open: Vec<(u32, u64)>,
    /// Named exact counts recorded at the span boundaries, per repetition.
    counters: Vec<(u32, &'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            rep: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Switches recording on or off for the repetition that starts now.
    pub fn start_rep(&mut self, rep: u32, enabled: bool) {
        debug_assert!(
            self.open.is_empty(),
            "a repetition starts with no open span"
        );
        self.rep = rep;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(p, _)| p),
            rep: self.rep,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push((id, 0));
        Some(id)
    }

    pub fn exit(&mut self, id: Option<u32>) -> Option<Closed> {
        let id = id?;
        let end_ns = self.now_ns();
        let (top, child_ns) = self.open.pop().expect("exit matches an enter");
        assert_eq!(top, id, "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        let duration_ns = end_ns - span.start_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.1 += duration_ns;
        }
        Some(Closed {
            duration_ns,
            self_ns: duration_ns.saturating_sub(child_ns),
        })
    }

    /// Closes every open span, for a pass that was abandoned half-way.
    pub fn unwind(&mut self) {
        while let Some(&(id, _)) = self.open.last() {
            self.exit(Some(id));
        }
    }

    pub fn counter(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push((self.rep, name, value));
        }
    }

    /// Spans recorded in repetition `rep`.
    pub fn spans_in_rep(&self, rep: u32) -> usize {
        self.spans.iter().filter(|s| s.rep == rep).count()
    }

    /// What recording one span costs, in seconds: the direct price of
    /// tracing, measured on a tracer of its own.
    pub fn span_cost_seconds() -> f64 {
        const N: u32 = 100_000;
        let mut t = Tracer::new();
        t.start_rep(0, true);
        let started = Instant::now();
        for _ in 0..N {
            let id = t.enter("calibration");
            t.exit(id);
        }
        started.elapsed().as_secs_f64() / f64::from(N)
    }

    /// Self time per span name over the whole run, in seconds: duration
    /// minus the part of the interval that child spans cover.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes `<stem>.trace.jsonl` (one span or counter per line) and
    /// `<stem>.trace.json` (Chrome trace: load in `chrome://tracing` or
    /// Perfetto; one track per repetition).
    pub fn write_files(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        let mut jsonl = BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.trace.jsonl")),
        )?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                jsonl,
                "{{\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.rep, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (rep, name, value) in &self.counters {
            writeln!(
                jsonl,
                "{{\"rep\":{rep},\"counter\":\"{name}\",\"value\":{value}}}"
            )?;
        }
        jsonl.flush()?;

        let mut chrome = BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.trace.json")),
        )?);
        write!(chrome, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(chrome, ",")?;
            }
            write!(
                chrome,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )?;
        }
        writeln!(chrome, "\n]}}")?;
        chrome.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.start_rep(1, true);
        let root = t.enter("root");
        let a = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a = t.exit(a).unwrap();
        let b = t.enter("child");
        let b = t.exit(b).unwrap();
        let root = t.exit(root).unwrap();
        assert_eq!(
            root.self_ns,
            root.duration_ns - a.duration_ns - b.duration_ns
        );
        assert_eq!(a.self_ns, a.duration_ns);
        let by_name = t.self_seconds_by_name();
        assert_eq!(by_name["child"].0, 2);
        assert!((by_name["root"].1 - root.self_ns as f64 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.enter("x");
        assert!(id.is_none());
        assert!(t.exit(id).is_none());
        t.counter("c", 1.0);
        assert!(t.self_seconds_by_name().is_empty());
    }
}
