//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent, op id); spans of one operation
//! share the op id. Every span's duration goes into a per-name histogram;
//! the first [`KEEP`] spans are also kept whole and written out as a Chrome
//! trace when the run ends, so memory stays bounded on long runs.

use crate::hist::Hist;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept whole for the written trace; later spans feed only the
/// per-name histograms.
pub const KEEP: usize = 200_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span (0 = root).
    pub parent: u64,
    pub op: u64,
    /// Recording thread (one per fabric node that records).
    pub tid: u64,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Id to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span recorder. Recorders from several threads are merged
/// with [`Spans::absorb`] after the run.
pub struct Spans {
    epoch: Instant,
    tid: u64,
    next: u64,
    pub kept: Vec<Span>,
    pub dropped: u64,
    pub by_name: BTreeMap<&'static str, Hist>,
}

impl Spans {
    pub fn new(epoch: Instant, tid: u64) -> Self {
        Spans {
            epoch,
            tid,
            next: 0,
            kept: Vec::new(),
            dropped: 0,
            by_name: BTreeMap::new(),
        }
    }

    /// The clock zero shared by recorders that are merged together.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn tid(&self) -> u64 {
        self.tid
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        let start_ns = self.now();
        self.next += 1;
        let id = self.next;
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
                tid: self.tid,
            });
        } else {
            self.dropped += 1;
        }
        Open { id, name, start_ns }
    }

    /// Close `o`; returns its duration in ns.
    pub fn end(&mut self, o: Open) -> u64 {
        let end_ns = self.now();
        let dur = end_ns - o.start_ns;
        // Ids are handed out in push order, so a kept span sits at id - 1.
        if let Some(s) = self.kept.get_mut(o.id as usize - 1) {
            s.end_ns = end_ns;
        }
        self.by_name.entry(o.name).or_default().record(dur);
        dur
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.begin(name, parent, op);
        let r = f();
        self.end(o);
        r
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Fold another recorder's spans and histograms into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (name, h) in other.by_name {
            self.by_name.entry(name).or_default().merge(&h);
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        // Parent links are indices into the recording thread's own list;
        // keep them meaningful by offsetting them with that list's position.
        let base = self.kept.len() as u64;
        self.kept
            .extend(other.kept.into_iter().take(room).map(|mut s| {
                if s.parent != 0 {
                    s.parent += base;
                }
                s
            }));
    }

    /// Write the kept spans as a Chrome `trace_event` file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i + 1 == self.kept.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.op
            )?;
        }
        writeln!(w, "],\"droppedSpans\":{}}}", self.dropped)?;
        w.flush()
    }
}
