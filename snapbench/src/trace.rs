//! The benchmark's own timing wrappers: spans around the public calls it
//! makes into the measured crates, kept in memory and written out at
//! exit. Nothing outside the benchmark is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called (`layer.call`).
    pub name: &'static str,
    /// Unique span id.
    pub id: u64,
    /// The enclosing span's id (`0` for a root).
    pub parent: u64,
    /// The client operation the call belongs to; spans of one operation
    /// share it.
    pub op: u64,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    /// End, in ns since the log's epoch.
    pub end_ns: u64,
}

/// The id of an operation's root span. Deterministic, so threads that
/// see different parts of one operation agree on it without talking.
pub fn op_root(op: u64) -> u64 {
    (1 << 63) | op
}

/// One thread's span buffer. When off, every method is a no-op, so the
/// untraced run pays only a branch.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A buffer for thread `tag`, timing relative to `epoch`.
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Self {
        SpanLog {
            on,
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with a caller-chosen id; returns the id.
    pub fn record_with_id(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent,
                op,
                start_ns,
                end_ns,
            });
        }
        id
    }

    /// Records a span with a fresh id; returns the id (`0` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = (self.tag << 48) | self.next;
        self.record_with_id(name, id, parent, op, start, end)
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, mut other: SpanLog) {
        self.spans.append(&mut other.spans);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total ns and self ns (duration minus the
    /// part covered by child spans), in name order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        by_name
            .into_iter()
            .map(|(name, (c, t, s))| (name, c, t, s))
            .collect()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Writes the spans as CSV (`name,id,parent,op,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,id,parent,op,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(true, t0, 1);
        let root = log.record_with_id("op", op_root(7), 0, 7, at(0), at(100));
        log.record("child", root, 7, at(10), at(40));
        log.record("child", root, 7, at(50), at(60));
        let st = log.self_times();
        assert_eq!(
            st,
            vec![("child", 2, 40_000, 40_000), ("op", 1, 100_000, 60_000)]
        );
    }

    #[test]
    fn an_off_log_records_nothing() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(false, t0, 1);
        assert_eq!(log.record("x", 0, 0, t0, t0), 0);
        assert_eq!(log.len(), 0);
    }
}
