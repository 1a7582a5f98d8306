//! In-memory span recorder for the traced replay.
//!
//! A span is a name, a trace key, a wall-clock interval and the span that
//! encloses it. The replay opens one `day` span, one `window` span per
//! demand window (key = window index) and one `request` span per executed
//! request (key = request index); every call into a layer is a child span
//! that inherits its parent's key. The recorder is single-threaded and
//! spans nest strictly, so a span's self time is its duration minus the
//! durations of its direct children.

use std::io::{self, Write};
use std::time::Instant;

/// Every span name the replay records. The layer names are
/// `<crate>.<call>`; `Day`, `Window` and `Request` are the request loop
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Day,
    Window,
    Request,
    StreamSend,
    StreamAudit,
    DfsArchive,
    ServePut,
    ServeGet,
    ServeQuery,
    ServeInfer,
    ServeFlush,
    ServeRebalance,
    TsdbRecord,
    TsdbRead,
    TsdbRules,
    TsdbScrape,
    MetroAutoscale,
}

impl Name {
    /// Every name, in reporting order.
    pub const ALL: [Name; 17] = [
        Name::Day,
        Name::Window,
        Name::Request,
        Name::StreamSend,
        Name::StreamAudit,
        Name::DfsArchive,
        Name::ServePut,
        Name::ServeGet,
        Name::ServeQuery,
        Name::ServeInfer,
        Name::ServeFlush,
        Name::ServeRebalance,
        Name::TsdbRecord,
        Name::TsdbRead,
        Name::TsdbRules,
        Name::TsdbScrape,
        Name::MetroAutoscale,
    ];

    /// The name as written to the span file and used in metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Day => "scmetro.day",
            Name::Window => "scmetro.window",
            Name::Request => "scmetro.request",
            Name::StreamSend => "scstream.send",
            Name::StreamAudit => "scstream.audit",
            Name::DfsArchive => "scdfs.archive",
            Name::ServePut => "scserve.put",
            Name::ServeGet => "scserve.get",
            Name::ServeQuery => "scserve.query",
            Name::ServeInfer => "scserve.infer",
            Name::ServeFlush => "scserve.flush",
            Name::ServeRebalance => "scserve.rebalance",
            Name::TsdbRecord => "sctsdb.record",
            Name::TsdbRead => "sctsdb.read",
            Name::TsdbRules => "sctsdb.rules",
            Name::TsdbScrape => "sctsdb.scrape",
            Name::MetroAutoscale => "scmetro.autoscale",
        }
    }

    /// Whether the span is the request loop rather than a layer call.
    pub fn is_loop(self) -> bool {
        matches!(self, Name::Day | Name::Window | Name::Request)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    key: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. `key` is the trace key;
    /// `None` inherits the parent's.
    pub fn open(&mut self, name: Name, key: Option<u64>) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let key =
            key.unwrap_or_else(|| self.open.last().map_or(0, |&p| self.spans[p as usize].key));
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a child span named `name`.
    pub fn call<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.open(name, None);
        let out = f();
        self.close();
        out
    }

    /// Per-span durations (ns) of every closed span named `name`, in
    /// recording order.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Aggregates spans by name: `(calls, self_ns)` indexed by
    /// `Name as usize`, the order of [`Name::ALL`]. Self time is a span's
    /// duration minus its direct children's, so the self times of all names
    /// sum to the root spans' total duration.
    pub fn self_times(&self) -> Vec<(u64, u64)> {
        assert!(self.open.is_empty(), "every span is closed");
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = vec![(0u64, 0u64); Name::ALL.len()];
        for (s, child) in self.spans.iter().zip(children_ns) {
            let slot = &mut out[s.name as usize];
            slot.0 += 1;
            slot.1 += (s.end_ns - s.start_ns) - child;
        }
        out
    }

    /// Total duration of the root spans, ns.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `index parent name key start_ns end_ns` (`parent` is `-` for roots).
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "index\tparent\tname\tkey\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                write!(out, "{i}\t-")?;
            } else {
                write!(out, "{i}\t{}", s.parent)?;
            }
            writeln!(
                out,
                "\t{}\t{}\t{}\t{}",
                s.name.as_str(),
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_names_in_discriminant_order() {
        for (i, &n) in Name::ALL.iter().enumerate() {
            assert_eq!(n as usize, i, "{n:?}");
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(16);
        t.open(Name::Day, Some(0));
        for w in 0..3 {
            t.open(Name::Window, Some(w));
            t.call(Name::DfsArchive, || std::hint::black_box(w * 2));
            t.open(Name::Request, Some(10 + w));
            t.call(Name::ServeGet, || std::hint::black_box(w));
            t.close();
            t.close();
        }
        t.close();
        let total: u64 = t.self_times().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(total, t.root_ns());
        assert_eq!(t.self_times()[Name::ServeGet as usize].0, 3);
        // Children inherit their request's key.
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().any(|l| l.contains("scserve.get\t12\t")));
    }
}
