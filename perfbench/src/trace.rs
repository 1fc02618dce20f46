//! Benchmark-side spans for the traced run.
//!
//! Spans wrap the benchmark's calls into the program's public API (never
//! code inside it). Each span carries a name, start, end, the span that
//! caused it, and the id of the request, query or job it belongs to. Spans
//! stay in per-thread memory and are written out once the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Request, query or job id; spans of one operation share it.
    id: u64,
    /// Index of the causing span in the same recorder, or [`ROOT`].
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span buffer. All recorders of a run share an epoch so their
/// timestamps are comparable.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, id: u64, parent: u32, start: Instant) -> u32 {
        self.record(name, id, parent, start, start)
    }

    /// End a span opened with [`Recorder::open`].
    pub fn close(&mut self, span: u32, end: Instant) {
        self.spans[span as usize].end_ns =
            end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }
}

/// Write every recorder's spans as JSON lines to
/// `perfbench/out/trace-<workload>.jsonl` (parents are renumbered to line
/// indices of the merged file). Returns the path and the span count.
pub fn write(workload: &str, recorders: &[Recorder]) -> io::Result<(PathBuf, usize)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    let mut base = 0u64;
    for rec in recorders {
        for s in &rec.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                (base + u64::from(s.parent)) as i64
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        base += rec.spans.len() as u64;
    }
    out.flush()?;
    Ok((path, base as usize))
}
