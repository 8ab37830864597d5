//! Spans the benchmark records around each public call it makes into
//! the crates, and the per-op conservation check over them.
//!
//! An op's spans form a tree: top-level spans wrap the benchmark's own
//! calls, and a child span (the server-side share of a served run, say)
//! sits inside its parent. A span's *self* time is its duration minus
//! its children's. Self times of all spans are conserved against the
//! op's wall time, measured independently around the whole op: the gap
//! is time the spans failed to cover. Time the kernel kept the op's
//! thread waiting for a CPU can fall between two spans; it is read from
//! the thread's scheduler statistics and allowed for.

use std::time::Instant;

/// One recorded span, in nanoseconds since the op began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `asm.build`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    /// Duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one op. When disabled it still times the calls
/// whose duration an end-to-end metric needs, but records nothing.
#[derive(Debug)]
pub struct OpTrace {
    began: Instant,
    enabled: bool,
    spans: Vec<Span>,
    wait_at_begin: u64,
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU
/// (the second field of `/proc/thread-self/schedstat`); 0 where the
/// kernel does not report it.
fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

impl OpTrace {
    /// Starts an op; `enabled` selects whether spans are kept.
    pub fn begin(enabled: bool) -> OpTrace {
        // Read before the op's clock starts, so the read is not in it.
        let wait_at_begin = if enabled { runqueue_wait_ns() } else { 0 };
        OpTrace {
            began: Instant::now(),
            enabled,
            spans: Vec::new(),
            wait_at_begin,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a top-level span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a top-level span and also returns its duration
    /// in nanoseconds, whether or not spans are kept.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: None,
                start_ns: start.duration_since(self.began).as_nanos() as u64,
                end_ns: end.duration_since(self.began).as_nanos() as u64,
            });
        }
        (value, ns)
    }

    /// Index of the most recent top-level span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Ends the op.
    pub fn finish(self) -> OpRecord {
        let wall_ns = self.began.elapsed().as_nanos() as u64;
        let wait_ns = if self.enabled {
            runqueue_wait_ns().saturating_sub(self.wait_at_begin)
        } else {
            0
        };
        OpRecord {
            wall_ns,
            spans: self.spans,
            traced: self.enabled,
            wait_ns,
        }
    }
}

/// A finished op: its independently measured wall time and its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Wall time of the whole op.
    pub wall_ns: u64,
    /// Recorded spans (empty when the op ran untraced).
    pub spans: Vec<Span>,
    /// Whether spans were kept.
    pub traced: bool,
    /// Time the op's thread waited for a CPU during the op.
    pub wait_ns: u64,
}

impl OpRecord {
    /// Adds a child span of measured duration `ns` inside `parent`,
    /// aligned to the parent's end (a reply is sent when the work it
    /// reports is done). Used for time measured on the far side of a
    /// call, such as the server-side wall time of a served run.
    pub fn add_child(&mut self, parent: usize, name: &'static str, ns: u64) {
        let end_ns = self.spans[parent].end_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: end_ns.saturating_sub(ns),
            end_ns,
        });
    }

    /// Self time of every span: its duration minus its children's, or
    /// an error when children overrun their parent.
    pub fn self_times(&self) -> Result<Vec<(&'static str, u64)>, String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| {
                s.ns()
                    .checked_sub(c)
                    .map(|own| (s.name, own))
                    .ok_or_else(|| {
                        format!("children of {} cover {c} ns of its {} ns", s.name, s.ns())
                    })
            })
            .collect()
    }

    /// Conservation: the layers' self times must sum to the op's wall
    /// time within `tol_share` of it plus `tol_ns`, plus the time the
    /// thread waited for a CPU. Returns the uncovered time.
    pub fn check_conservation(&self, tol_share: f64, tol_ns: u64) -> Result<u64, String> {
        let covered: u64 = self.self_times()?.iter().map(|&(_, ns)| ns).sum();
        if covered > self.wall_ns {
            return Err(format!(
                "spans cover {covered} ns of a {} ns op",
                self.wall_ns
            ));
        }
        let gap = self.wall_ns - covered;
        let allowed = (self.wall_ns as f64 * tol_share) as u64 + tol_ns + self.wait_ns;
        if gap > allowed {
            return Err(format!(
                "{gap} ns of a {} ns op are outside every span (allowed {allowed})",
                self.wall_ns
            ));
        }
        Ok(gap)
    }
}

/// Conservation tolerance: the share of an op's wall time its spans may
/// leave uncovered...
pub const CONSERVATION_SHARE: f64 = 0.02;
/// ...plus a fixed allowance: a virtual CPU on a shared host can stall
/// for a millisecond or two between two calls without the guest kernel
/// seeing it, which is not time the program spent.
pub const CONSERVATION_NS: u64 = 2_000_000;
/// Over a whole run, the spans must cover all but this share of the
/// traced ops' wall time, which catches a call left out of every span.
pub const COVERAGE_SHARE: f64 = 0.01;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let mut op = OpRecord {
            wall_ns: 1_000,
            spans: vec![
                span("session.create", None, 0, 100),
                span("session.run", None, 100, 990),
            ],
            traced: true,
            wait_ns: 0,
        };
        op.add_child(1, "server.run", 600);
        assert_eq!(
            op.self_times().unwrap(),
            vec![
                ("session.create", 100),
                ("session.run", 290),
                ("server.run", 600)
            ]
        );
        assert_eq!(op.check_conservation(0.0, 10), Ok(10));
    }

    #[test]
    fn conservation_rejects_uncovered_time_and_overruns() {
        let op = OpRecord {
            wall_ns: 1_000_000,
            spans: vec![span("asm.build", None, 0, 500_000)],
            traced: true,
            wait_ns: 0,
        };
        assert!(
            op.check_conservation(0.02, 1_000).is_err(),
            "half the op untraced"
        );
        assert_eq!(op.check_conservation(0.5, 0), Ok(500_000));
        let descheduled = OpRecord {
            wait_ns: 490_000,
            ..op.clone()
        };
        assert_eq!(
            descheduled.check_conservation(0.0, 10_000),
            Ok(500_000),
            "time spent waiting for a CPU is allowed for"
        );

        let mut overrun = op.clone();
        overrun.add_child(0, "inner", 300_000);
        overrun.add_child(0, "inner", 300_000);
        assert!(
            overrun.self_times().is_err(),
            "children longer than their parent"
        );

        let over = OpRecord {
            wall_ns: 10,
            spans: vec![span("core.run", None, 0, 20)],
            traced: true,
            wait_ns: 0,
        };
        assert!(
            over.check_conservation(1.0, 100).is_err(),
            "spans beyond the op"
        );
    }

    #[test]
    fn recorded_spans_are_conserved() {
        let mut t = OpTrace::begin(true);
        let x = t.span("a", || (0..1000u64).sum::<u64>());
        let (_, ns) = t.timed("b", || std::hint::black_box(x) + 1);
        let op = t.finish();
        assert_eq!(op.spans.len(), 2);
        assert_eq!(op.spans[1].ns(), ns);
        assert!(op
            .check_conservation(CONSERVATION_SHARE, CONSERVATION_NS)
            .is_ok());

        let mut off = OpTrace::begin(false);
        let (_, ns) = off.timed("b", || 1);
        assert!(off.finish().spans.is_empty() && ns < 1_000_000_000);
    }
}
