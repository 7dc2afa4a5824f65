//! In-memory spans recorded from the benchmark's own code around calls
//! into the program's public functions, and the self-time accounting
//! over them.
//!
//! A span is named `layer.op` after the module it calls into. Spans of
//! one grid point share its point id. Each worker records a point's
//! spans into its own [`Recorder`]; the pass merges them afterwards,
//! so recording takes no lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Whether the parent ran on another thread (a grid point under
    /// the `sweep.map` span of the thread that waits for it).
    pub remote_parent: bool,
    /// Grid point the span belongs to (`None` for pass-level spans).
    pub point: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread, plus counters.
pub struct Recorder {
    epoch: Instant,
    point: Option<u32>,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(epoch: Instant, point: Option<u32>) -> Recorder {
        Recorder {
            epoch,
            point,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            remote_parent: false,
            point: self.point,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Appends another thread's recorder, hanging its root spans under
    /// `parent` (a span of this recorder).
    pub fn adopt(&mut self, other: Recorder, parent: Option<usize>) {
        let offset = self.spans.len();
        for mut span in other.spans {
            match span.parent {
                Some(p) => span.parent = Some(p + offset),
                None => {
                    span.parent = parent;
                    span.remote_parent = true;
                }
            }
            self.spans.push(span);
        }
        for (name, n) in other.counts {
            self.count(name, n);
        }
    }
}

/// Names of the spans that are structure, not layers: the pass root,
/// the caller's wait on the worker pool, and a grid point.
pub const PASS: &str = "pass";
pub const SWEEP_MAP: &str = "sweep.map";
pub const POINT: &str = "point";

/// Thread-time accounting of one traced pass. The budget is
/// `threads × pass wall time`; it splits exactly into the self time of
/// each layer span, the gap (time on a busy thread outside every layer
/// span: the benchmark's own glue and checks), and idle (a worker
/// waiting for work, or the second thread while the caller runs the
/// serial parse, expand and emit steps).
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    pub wall_ns: u64,
    pub budget_ns: u64,
    /// Self time per span name, summed over threads.
    pub self_ns: BTreeMap<&'static str, u64>,
    pub gap_ns: u64,
    pub idle_ns: u64,
    /// Durations of the grid-point spans.
    pub point_ns: Vec<u64>,
}

/// Accounts for a trace holding exactly one `pass` root.
pub fn account(spans: &[Span], threads: u64) -> Accounting {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let (Some(p), false) = (span.parent, span.remote_parent) {
            child_ns[p] += span.duration_ns();
        }
    }
    let mut acc = Accounting::default();
    let mut waited_ns = 0;
    let mut point_total = 0;
    for (i, span) in spans.iter().enumerate() {
        let own = span.duration_ns() - child_ns[i];
        match span.name {
            PASS => {
                acc.wall_ns = span.duration_ns();
                acc.gap_ns += own;
            }
            SWEEP_MAP => waited_ns += span.duration_ns(),
            POINT => {
                acc.gap_ns += own;
                acc.point_ns.push(span.duration_ns());
                point_total += span.duration_ns();
            }
            name => *acc.self_ns.entry(name).or_default() += own,
        }
    }
    // The pass root's self time excludes its children, `sweep.map`
    // included, so the caller's wait is already out of the gap.
    acc.budget_ns = threads * acc.wall_ns;
    let main_active = acc.wall_ns - waited_ns;
    acc.idle_ns = acc.budget_ns.saturating_sub(main_active + point_total);
    acc
}

/// Appends spans, then each point's counters, as JSON lines tagged
/// with the traced pass number.
pub fn write_jsonl(
    out: &mut String,
    pass: usize,
    spans: &[Span],
    point_counts: &[(u32, BTreeMap<&'static str, u64>)],
) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let point = s.point.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"pass\": {pass}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"point\": {point}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    for (point, counts) in point_counts {
        let fields: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"pass\": {pass}, \"point\": {point}, \"counts\": {{{}}}}}",
            fields.join(", ")
        );
    }
}
