//! What a workload reports into while it runs: operations attempted and
//! failed, time per layer (traced repetitions only), exact counts, and the
//! answers the golden file pins.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::trace::Tracer;

/// The pass cannot go on: an operation failed and its value is missing.
/// The failure itself is already counted in [`Ctx`].
#[derive(Debug)]
pub struct Abort;

pub type Pass<T> = Result<T, Abort>;

/// FNV-1a over 64-bit words (xor a word, multiply by the FNV prime): the
/// digest of every answer. Word-wise so that folding a streamed assignment
/// into it costs about a nanosecond per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn words(mut self, ws: impl IntoIterator<Item = u64>) -> Self {
        for w in ws {
            self.word(w);
        }
        self
    }

    pub fn str(mut self, s: &str) -> Self {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self.word(0xff);
        self
    }
}

pub struct Ctx {
    pub tracer: Tracer,
    /// Timed calls into the library so far (set-up, warm-up and extras
    /// included).
    pub attempted: u64,
    /// Calls that returned `Err`, panicked, or produced a wrong answer.
    pub failed: u64,
    last_op_failed: bool,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// True in the warm-up repetition, which pins the answers; false in
    /// the timed repetitions, which must repeat them.
    pub pin_answers: bool,
    /// `(name, digest or exact value)` in the order produced.
    pub answers: Vec<(String, u64)>,
    unit_seconds: BTreeMap<&'static str, f64>,
    unit_counts: BTreeMap<&'static str, f64>,
    /// Per span name, the seconds spent in it in each traced unit (a
    /// set-up iteration or a repetition).
    pub seconds: BTreeMap<&'static str, Vec<f64>>,
    /// Per counter, its total in each unit, traced or not.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            last_op_failed: false,
            failures: Vec::new(),
            pin_answers: false,
            answers: Vec::new(),
            unit_seconds: BTreeMap::new(),
            unit_counts: BTreeMap::new(),
            seconds: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn record_failure(&mut self, what: &str, why: &str) {
        self.failed += 1;
        self.last_op_failed = true;
        if self.failures.len() < 16 {
            self.failures.push(format!("{what}: {why}"));
        }
        eprintln!("FAILED {what}: {why}");
    }

    /// One timed call into a layer: counted as an operation, wrapped in a
    /// span when tracing. It fails on `Err` and on panic.
    pub fn op<T>(&mut self, span: &'static str, f: impl FnOnce() -> Result<T, String>) -> Pass<T> {
        self.attempted += 1;
        self.last_op_failed = false;
        let id = self.tracer.enter(span);
        let outcome = catch_unwind(AssertUnwindSafe(f));
        self.close(span, id);
        match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(why)) => {
                self.record_failure(span, &why);
                Err(Abort)
            }
            Err(_) => {
                self.record_failure(span, "panicked");
                Err(Abort)
            }
        }
    }

    /// [`Ctx::op`] for a call that returns no `Result`.
    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> Pass<T> {
        self.op(span, || Ok(f()))
    }

    /// A span that is not an operation: a pass, or the checking of answers.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let id = self.tracer.enter(name);
        let value = f(self);
        self.close(name, id);
        value
    }

    fn close(&mut self, name: &'static str, id: Option<u32>) {
        if let Some(closed) = self.tracer.exit(id) {
            *self.unit_seconds.entry(name).or_default() += closed.duration_ns as f64 * 1e-9;
            if matches!(name, "cold" | "warm") {
                *self.unit_seconds.entry("trace.unattributed").or_default() +=
                    closed.self_ns as f64 * 1e-9;
            }
        }
    }

    /// The answer of the operation just made is wrong: that operation
    /// failed (once, however many of its checks say so).
    pub fn expect(&mut self, what: &str, ok: bool) {
        if !ok && !self.last_op_failed {
            self.record_failure(what, "wrong answer");
        }
    }

    /// A check of the whole run (not of one call): counted as an operation
    /// of its own, failed when `problem` says what is wrong.
    pub fn verdict(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        self.last_op_failed = false;
        if let Some(why) = problem {
            self.record_failure(what, &why);
        }
    }

    pub fn failure_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Adds to an exact count of this unit.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.unit_counts.entry(name).or_default() += value;
    }

    /// Keeps the largest value seen in this unit.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        let e = self.unit_counts.entry(name).or_insert(value);
        *e = e.max(value);
    }

    /// An answer, as a digest or an exact value. The warm-up repetition
    /// pins it (for the golden file); every later repetition must produce
    /// the same value again, or the operation just made has failed.
    pub fn answer(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        if self.pin_answers {
            self.answers.push((name, value));
        } else {
            let pinned = self.answers.iter().find(|(n, _)| *n == name);
            let same = pinned.is_some_and(|(_, v)| *v == value);
            self.expect(&format!("{name} repeats the warm-up's answer"), same);
        }
    }

    /// Ends a set-up iteration or a repetition. `keep` is false for the
    /// warm-up repetition, whose numbers are thrown away.
    pub fn end_unit(&mut self, keep: bool) {
        self.tracer.unwind();
        let seconds = std::mem::take(&mut self.unit_seconds);
        let counts = std::mem::take(&mut self.unit_counts);
        if !keep {
            return;
        }
        for (name, s) in seconds {
            self.seconds.entry(name).or_default().push(s);
        }
        for (name, c) in counts {
            self.tracer.counter(name, c);
            self.counts.entry(name).or_default().push(c);
        }
    }

    /// One digest over every pinned answer, in order.
    pub fn answers_digest(&self) -> u64 {
        self.answers
            .iter()
            .fold(Digest::new(), |d, (name, v)| d.str(name).words([*v]))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_once_per_operation() {
        let mut ctx = Ctx::new();
        assert_eq!(ctx.call("a", || 7).unwrap(), 7);
        ctx.expect("a is 7", true);
        assert!(ctx.op::<()>("b", || Err("no".into())).is_err());
        ctx.expect("b's answer", false); // already failed
        assert!(ctx.call("c", || panic!("boom")).is_err());
        assert_eq!(ctx.call("d", || 1).unwrap(), 1);
        ctx.expect("d first check", false);
        ctx.expect("d second check", false);
        assert_eq!((ctx.attempted, ctx.failed), (4, 3));
    }

    #[test]
    fn units_accumulate_and_warm_up_is_dropped() {
        let mut ctx = Ctx::new();
        ctx.tracer.start_rep(0, true);
        ctx.span("cold", |c| c.call("x", || ()).unwrap());
        ctx.count("n", 2.0);
        ctx.end_unit(false);
        assert!(ctx.seconds.is_empty() && ctx.counts.is_empty());
        ctx.tracer.start_rep(1, true);
        ctx.span("cold", |c| {
            c.call("x", || ()).unwrap();
            c.call("x", || ()).unwrap();
        });
        ctx.count("n", 2.0);
        ctx.count("n", 3.0);
        ctx.count_max("m", 1.0);
        ctx.count_max("m", 4.0);
        ctx.end_unit(true);
        assert_eq!(ctx.counts["n"], vec![5.0]);
        assert_eq!(ctx.counts["m"], vec![4.0]);
        assert_eq!(ctx.seconds["x"].len(), 1);
        assert!(ctx.seconds["trace.unattributed"][0] <= ctx.seconds["cold"][0]);
    }

    #[test]
    fn digest_depends_on_order_and_names() {
        let a = Digest::new().str("ab").words([1, 2]);
        let b = Digest::new().str("ab").words([2, 1]);
        let c = Digest::new().str("a").str("b").words([1, 2]);
        assert!(a != b && a != c);
    }
}
