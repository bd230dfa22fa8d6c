//! Outside-in tracing: spans recorded around calls into the workspace's
//! public functions, their self times, and per-thread CPU from `/proc`.
//!
//! Spans stay in memory while the benchmark runs and are written out when
//! it ends. A disabled [`Recorder`] only runs the closures it is handed, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `session.push`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; all spans of one replayed record share it.
    pub request: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write all spans as CSV (`request,name,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,request,name,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{parent},{},{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What recording one span costs on this machine, ns: the mean over a
/// burst of empty spans. Multiplied by the spans a run recorded, it
/// estimates the tracing overhead where no untraced twin of the traced
/// work exists.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut rec = Recorder::new(true);
    let t = Instant::now();
    for i in 0..N {
        rec.span("calibrate", i, |_| ());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call, ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64
    }
}

/// Totals per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// On-CPU time of every thread of this process, ns, keyed by thread id,
/// with the thread's name. Read from `/proc/self/task/*/schedstat`, whose
/// first field is the task's cumulative run time in ns.
pub fn thread_cpu_ns() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        if let Some(ns) = ns {
            out.insert(tid, (name.trim().to_string(), ns));
        }
    }
    out
}

/// CPU time per thread name accumulated between two [`thread_cpu_ns`]
/// samples, ns. Threads that exist only in `after` count from zero.
pub fn cpu_delta_by_name(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (tid, (name, ns)) in after {
        let base = before.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(name.clone()).or_default() += ns.saturating_sub(base);
    }
    out
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    /// ```text
    /// 0 root   [0, 100)
    /// 1 ├ a    [10, 40)
    /// 2 │ └ a1 [15, 25)
    /// 3 ├ b    [35, 60)   overlaps a by 5 ns
    /// 4 └ c    [90, 120)  runs past the root's end
    /// ```
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 35, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // root: children cover [10, 60) and [90, 100) → 60 ns covered.
        // a: a1 covers 10 ns. Leaves keep their whole duration.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 25, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(totals["a"].total_ns, 30);
        assert_eq!(totals["a"].calls, 1);
    }

    #[test]
    fn recorder_nests_spans_and_shares_the_request_id() {
        let mut rec = Recorder::new(true);
        let v = rec.span("outer", 7, |rec| rec.span("inner", 7, |_| 3) + 1);
        assert_eq!(v, 4);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn proc_readers_see_this_process() {
        let threads = thread_cpu_ns();
        assert!(!threads.is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
