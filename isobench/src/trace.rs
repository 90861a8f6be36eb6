//! Spans and counters recorded from the benchmark's own files.
//!
//! A span wraps one call into a layer: the whole logical transaction
//! (`txn`), one `Transaction` method (`engine.*`), one `StorageBackend`
//! method the engine makes (`storage.*`, through
//! [`crate::traced_store::TracedStore`]), or one watcher drain.  Spans nest
//! on the calling thread, so a span's *self* time is its duration minus
//! the part its child spans cover: `engine.commit` self time is the commit
//! path minus the storage calls it makes (lock release, timestamp and
//! watcher fan-out stay in it, since those layers have no wrappable entry
//! point).
//!
//! Recording is per thread and off unless [`set_active`] switched it on
//! for the current logical transaction, so untraced runs pay one
//! thread-local load per call.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

/// One traced layer boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    Txn,
    EngineBegin,
    EngineRead,
    EngineReadForUpdate,
    EngineReadRange,
    EngineUpdate,
    EngineInsert,
    EngineCommit,
    EngineAbort,
    StorageGetLatestAny,
    StorageGetLatestCommitted,
    StorageGetVisible,
    StorageScanRange,
    StorageScanVisible,
    StorageInsert,
    StorageUpdate,
    StorageWritesOf,
    StorageFirstCommitterConflict,
    StorageCommit,
    StorageFlushCommit,
    StorageAbort,
    WatchDrain,
}

/// Every span, in report order (`Span as usize` indexes this array).
pub const SPANS: [Span; 22] = [
    Span::Txn,
    Span::EngineBegin,
    Span::EngineRead,
    Span::EngineReadForUpdate,
    Span::EngineReadRange,
    Span::EngineUpdate,
    Span::EngineInsert,
    Span::EngineCommit,
    Span::EngineAbort,
    Span::StorageGetLatestAny,
    Span::StorageGetLatestCommitted,
    Span::StorageGetVisible,
    Span::StorageScanRange,
    Span::StorageScanVisible,
    Span::StorageInsert,
    Span::StorageUpdate,
    Span::StorageWritesOf,
    Span::StorageFirstCommitterConflict,
    Span::StorageCommit,
    Span::StorageFlushCommit,
    Span::StorageAbort,
    Span::WatchDrain,
];

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Txn => "txn",
            Span::EngineBegin => "engine.begin",
            Span::EngineRead => "engine.read",
            Span::EngineReadForUpdate => "engine.read_for_update",
            Span::EngineReadRange => "engine.read_range",
            Span::EngineUpdate => "engine.update",
            Span::EngineInsert => "engine.insert",
            Span::EngineCommit => "engine.commit",
            Span::EngineAbort => "engine.abort",
            Span::StorageGetLatestAny => "storage.get_latest_any",
            Span::StorageGetLatestCommitted => "storage.get_latest_committed",
            Span::StorageGetVisible => "storage.get_visible",
            Span::StorageScanRange => "storage.scan_range",
            Span::StorageScanVisible => "storage.scan_visible",
            Span::StorageInsert => "storage.insert",
            Span::StorageUpdate => "storage.update",
            Span::StorageWritesOf => "storage.writes_of",
            Span::StorageFirstCommitterConflict => "storage.first_committer_conflict",
            Span::StorageCommit => "storage.commit",
            Span::StorageFlushCommit => "storage.flush_commit",
            Span::StorageAbort => "storage.abort",
            Span::WatchDrain => "watch.drain",
        }
    }
}

/// Counted events, summed over threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Count {
    DeadlockAborts,
    TimeoutAborts,
    FcwAborts,
    WatchEvents,
}

/// Per-span totals.  `self_samples_ns` keeps every call's self time so the
/// p99 is exact rather than read off a histogram.
#[derive(Clone, Default, Debug)]
pub struct SpanStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_samples_ns: Vec<u64>,
}

/// Everything one thread (or, after [`Table::merge`], one run) recorded.
#[derive(Clone, Debug)]
pub struct Table {
    pub spans: Vec<SpanStats>,
    pub counts: [u64; 4],
    /// Largest number of events found waiting in one watcher at a drain.
    pub watch_pending_max: u64,
}

impl Default for Table {
    fn default() -> Self {
        Table {
            spans: vec![SpanStats::default(); SPANS.len()],
            counts: [0; 4],
            watch_pending_max: 0,
        }
    }
}

impl Table {
    pub fn span(&self, span: Span) -> &SpanStats {
        &self.spans[span as usize]
    }

    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    pub fn merge(&mut self, other: Table) {
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.self_samples_ns.extend(theirs.self_samples_ns);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.watch_pending_max = self.watch_pending_max.max(other.watch_pending_max);
    }

    /// Share of `txn` time covered by the spans nested in it: the layer
    /// spans explain this much of each logical transaction's wall time,
    /// and the rest is the client's own work between calls.
    pub fn coverage(&self) -> f64 {
        let txn = self.span(Span::Txn);
        if txn.total_ns == 0 {
            return 0.0;
        }
        (txn.total_ns - txn.self_ns) as f64 / txn.total_ns as f64
    }
}

struct Frame {
    span: Span,
    start_ns: u64,
    child_ns: u64,
}

/// The self-time arithmetic for one thread, over explicit clock readings.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Frame>,
    pub table: Table,
}

impl Recorder {
    pub fn enter(&mut self, span: Span, now_ns: u64) {
        self.stack.push(Frame {
            span,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    pub fn exit(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("exit matches an enter");
        let duration = now_ns.saturating_sub(frame.start_ns);
        let self_ns = duration.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let stats = &mut self.table.spans[frame.span as usize];
        stats.calls += 1;
        stats.total_ns += duration;
        stats.self_ns += self_ns;
        stats.self_samples_ns.push(self_ns);
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch recording on or off for the calling thread.  Call only between
/// spans (at a logical transaction boundary).
pub fn set_active(on: bool) {
    ACTIVE.with(|a| a.set(on));
}

fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` inside `span` (recorded only while the thread is active).
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().enter(span, now_ns()));
    let out = f();
    RECORDER.with(|r| r.borrow_mut().exit(now_ns()));
    out
}

pub fn add(count: Count, n: u64) {
    if active() {
        RECORDER.with(|r| r.borrow_mut().table.counts[count as usize] += n);
    }
}

pub fn note_watch_pending(n: u64) {
    if active() {
        RECORDER.with(|r| {
            let table = &mut r.borrow_mut().table;
            table.watch_pending_max = table.watch_pending_max.max(n);
        });
    }
}

/// Take (and reset) everything the calling thread recorded.
pub fn take() -> Table {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().table))
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 when
/// empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `total` spread over `txns` committed transactions; 0 when none.
pub fn per_txn(total: f64, txns: u64) -> f64 {
    if txns == 0 {
        0.0
    } else {
        total / txns as f64
    }
}

/// The per-span metrics of a traced window: calls and self time per
/// committed transaction, and the p99 of one call's self time.
pub fn span_metrics(table: &Table, txns: u64) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        let stats = table.span(span);
        let mut samples = stats.self_samples_ns.clone();
        samples.sort_unstable();
        let name = span.name();
        out.push((
            format!("{name}.calls_per_txn"),
            per_txn(stats.calls as f64, txns),
            "calls/txn",
        ));
        out.push((
            format!("{name}.self_us_per_txn"),
            per_txn(stats.self_ns as f64 / 1e3, txns),
            "us/txn",
        ));
        out.push((
            format!("{name}.self_p99_us"),
            percentile(&samples, 0.99) as f64 / 1e3,
            "us",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // txn [0, 100): engine.commit [10, 60) containing storage.commit
        // [20, 30) and storage.flush_commit [30, 50); engine.read [70, 80).
        let mut r = Recorder::default();
        r.enter(Span::Txn, 0);
        r.enter(Span::EngineCommit, 10);
        r.enter(Span::StorageCommit, 20);
        r.exit(30);
        r.enter(Span::StorageFlushCommit, 30);
        r.exit(50);
        r.exit(60);
        r.enter(Span::EngineRead, 70);
        r.exit(80);
        r.exit(100);
        let t = &r.table;
        assert_eq!(t.span(Span::StorageCommit).self_ns, 10);
        assert_eq!(t.span(Span::StorageFlushCommit).self_ns, 20);
        // The grandchildren count against engine.commit, not against txn.
        assert_eq!(t.span(Span::EngineCommit).total_ns, 50);
        assert_eq!(t.span(Span::EngineCommit).self_ns, 20);
        assert_eq!(t.span(Span::EngineRead).self_ns, 10);
        assert_eq!(t.span(Span::Txn).total_ns, 100);
        assert_eq!(t.span(Span::Txn).self_ns, 40);
        // Self times of the whole tree add up to the root's duration.
        let sum: u64 = t.spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
        assert!((t.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn repeated_calls_accumulate_and_keep_every_sample() {
        let mut r = Recorder::default();
        for (start, end) in [(0, 5), (10, 12), (20, 29)] {
            r.enter(Span::StorageGetVisible, start);
            r.exit(end);
        }
        let s = r.table.span(Span::StorageGetVisible);
        assert_eq!(s.calls, 3);
        assert_eq!(s.self_ns, 16);
        assert_eq!(s.self_samples_ns, vec![5, 2, 9]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.99), 0);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), 990);
    }

    #[test]
    fn per_transaction_normalisation() {
        let mut r = Recorder::default();
        for i in 0..4 {
            r.enter(Span::Txn, i * 100);
            r.enter(Span::EngineUpdate, i * 100 + 10);
            r.exit(i * 100 + 40);
            r.enter(Span::EngineUpdate, i * 100 + 40);
            r.exit(i * 100 + 90);
            r.exit(i * 100 + 100);
        }
        let metrics = span_metrics(&r.table, 4);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .expect("metric present")
        };
        assert_eq!(get("engine.update.calls_per_txn"), 2.0);
        assert!((get("engine.update.self_us_per_txn") - 0.080).abs() < 1e-12);
        assert!((get("engine.update.self_p99_us") - 0.050).abs() < 1e-12);
        assert_eq!(get("txn.calls_per_txn"), 1.0);
        assert_eq!(get("storage.commit.calls_per_txn"), 0.0);
        assert_eq!(per_txn(5.0, 0), 0.0);
    }

    #[test]
    fn merge_sums_counts_and_keeps_the_largest_backlog() {
        let mut a = Table::default();
        a.counts[Count::WatchEvents as usize] = 3;
        a.watch_pending_max = 4;
        a.spans[Span::Txn as usize].calls = 2;
        let mut b = Table::default();
        b.counts[Count::WatchEvents as usize] = 5;
        b.watch_pending_max = 2;
        b.spans[Span::Txn as usize].calls = 1;
        b.spans[Span::Txn as usize].self_samples_ns = vec![1];
        a.merge(b);
        assert_eq!(a.count(Count::WatchEvents), 8);
        assert_eq!(a.watch_pending_max, 4);
        assert_eq!(a.span(Span::Txn).calls, 3);
        assert_eq!(a.span(Span::Txn).self_samples_ns, vec![1]);
    }

    #[test]
    fn inactive_threads_record_nothing() {
        set_active(false);
        assert_eq!(span(Span::EngineRead, || 7), 7);
        add(Count::DeadlockAborts, 1);
        set_active(true);
        span(Span::EngineRead, || ());
        add(Count::FcwAborts, 2);
        set_active(false);
        let t = take();
        assert_eq!(t.span(Span::EngineRead).calls, 1);
        assert_eq!(t.count(Count::DeadlockAborts), 0);
        assert_eq!(t.count(Count::FcwAborts), 2);
        assert_eq!(take().span(Span::EngineRead).calls, 0);
    }
}
