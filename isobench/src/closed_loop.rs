//! The closed-loop load generator: client threads with no think time drive
//! one workload through the engine's public API, each starting its next
//! logical transaction only when the previous one has committed.
//!
//! A run is one process and one database: a warm-up, then the measured
//! window, in which every completed transaction counts.  In a traced run
//! the window's odd one-second slices are traced and its even ones are
//! not: the even slices are the baseline of `trace.overhead_ratio`.

use crate::sys;
use crate::trace::{self, Count, Span, Table};
use crate::traced_store::TracedStore;
use critique_engine::{BackendKind, Database, Durability, EngineConfig, Transaction, TxnError};
use critique_storage::{
    KeyInterval, LogStore, LogStoreConfig, MvStore, Row, RowId, StorageBackend,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Blocking lock waits give up after this long: about a hundred times the
/// slowest workload's p99.  Deadlocks are detected when the cycle forms,
/// so a timeout fires only for a starved waiter (an upgrade that barging
/// readers keep overtaking), and caps how long that stall can last.
pub const LOCK_TIMEOUT_MS: u64 = 100;

/// SplitMix64: small, fast, and the same sequence for the same seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Two distinct values in `0..n` drawn by `pick`.
    pub fn distinct_pair(&mut self, mut pick: impl FnMut(&mut Self) -> usize) -> (usize, usize) {
        let a = pick(self);
        loop {
            let b = pick(self);
            if b != a {
                return (a, b);
            }
        }
    }
}

/// A `Transaction` whose every call is one `engine.*` span.
pub struct Tx(Transaction);

impl Tx {
    pub fn read(&self, table: &str, row: RowId) -> Result<Option<Row>, TxnError> {
        trace::span(Span::EngineRead, || self.0.read(table, row))
    }

    pub fn read_for_update(&self, table: &str, row: RowId) -> Result<Option<Row>, TxnError> {
        trace::span(Span::EngineReadForUpdate, || {
            self.0.read_for_update(table, row)
        })
    }

    pub fn read_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
    ) -> Result<Vec<(RowId, Row)>, TxnError> {
        trace::span(Span::EngineReadRange, || {
            self.0.read_range(table, column, range)
        })
    }

    pub fn update(&self, table: &str, row: RowId, changes: Row) -> Result<(), TxnError> {
        trace::span(Span::EngineUpdate, || self.0.update(table, row, changes))
    }

    pub fn insert(&self, table: &str, row: Row) -> Result<RowId, TxnError> {
        trace::span(Span::EngineInsert, || self.0.insert(table, row))
    }
}

/// Begin, run `body`, commit.  A body error that left the transaction
/// active is followed by an explicit abort; the engine has already rolled
/// back deadlock victims, timeouts and First-Committer-Wins losers.
pub fn run_txn<T>(
    db: &Database,
    body: impl FnOnce(&Tx) -> Result<T, TxnError>,
) -> Result<T, TxnError> {
    let tx = Tx(trace::span(Span::EngineBegin, || db.begin()));
    match body(&tx) {
        Ok(value) => trace::span(Span::EngineCommit, || tx.0.commit()).map(|()| value),
        Err(e) => {
            if tx.0.is_active() {
                // Cannot fail: the transaction is active.
                let _ = trace::span(Span::EngineAbort, || tx.0.abort());
            }
            Err(e)
        }
    }
}

/// Create `table` (with an ordered index on `index`) and load `rows` in
/// one transaction at the database's level.
pub fn load(
    db: &Database,
    table: &str,
    index: Option<&str>,
    rows: impl Iterator<Item = Row>,
) -> Vec<RowId> {
    db.store().create_table(table);
    if let Some(column) = index {
        db.store().create_index(table, column);
    }
    run_txn(db, |tx| rows.map(|row| tx.insert(table, row)).collect())
        .expect("a single-client load commits")
}

/// The integer `column` of a row every workload keeps alive.
pub fn int(row: Option<Row>, column: &str) -> i64 {
    row.and_then(|r| r.get_int(column))
        .expect("benchmark rows are never deleted and always carry their columns")
}

/// A database with its client states, as one set-up leaves it.  Fields
/// drop in order: the database (closing its write-ahead files) before the
/// directory holding them is removed.
pub struct Built<C> {
    pub db: Database,
    pub clients: Vec<C>,
    pub dir: Option<DataDir>,
}

/// A write-ahead directory inside the working directory, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    const ROOT: &'static str = ".isobench_data";

    pub fn new(name: &str) -> Self {
        let path = Path::new(Self::ROOT).join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        DataDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only once the last run's directory is gone.
        let _ = fs::remove_dir(Self::ROOT);
    }
}

/// Build the database `config` describes, as `Database::with_config`
/// would, except that a durable log store is rooted at `dir` (inside the
/// working directory, not the system temp directory) and a traced run
/// wraps the store in [`TracedStore`].
pub fn open(config: EngineConfig, dir: Option<&Path>, traced: bool) -> Database {
    let store: Box<dyn StorageBackend> = match config.backend {
        BackendKind::MvStore => Box::new(MvStore::with_read_path(config.shards, config.read_path)),
        BackendKind::LogStructured => {
            let log_config = LogStoreConfig {
                shards: config.shards,
                group_commit: config.group_commit,
                ..LogStoreConfig::default()
            };
            match (config.durability, dir) {
                (Durability::Fsync, Some(dir)) => Box::new(
                    LogStore::open_durable(dir, log_config)
                        .expect("open the write-ahead directory"),
                ),
                _ => Box::new(LogStore::with_config(log_config)),
            }
        }
    };
    let store: Box<dyn StorageBackend> = if traced {
        Box::new(TracedStore::new(store))
    } else {
        store
    };
    Database::with_store(config, store)
}

/// One workload: its set-up, its transaction mix and its correctness check.
pub trait Workload: Sync + Sized {
    /// One logical transaction, drawn before the first attempt so that a
    /// retry repeats the same transaction.
    type Plan;
    /// Per-client state (acknowledged commits, watchers to drain).
    type Client: Send;

    const NAME: &'static str;

    /// Build the database, load its tables (each in one transaction at the
    /// workload's level) and register any watchers.
    fn setup(seed: u64, clients: usize, traced: bool) -> (Self, Built<Self::Client>);

    fn plan(&self, rng: &mut Rng, client: &Self::Client) -> Self::Plan;

    fn attempt(&self, db: &Database, plan: &Self::Plan) -> Result<(), TxnError>;

    /// After a logical transaction commits.
    fn committed(&self, _client: &mut Self::Client, _plan: &Self::Plan) {}

    /// Between logical transactions, outside their latency.
    fn between(&self, _client: &mut Self::Client) {}

    /// Check the final state; consumes the database (a durable workload
    /// stops it and recovers).
    fn check(&self, built: Built<Self::Client>) -> Check;

    fn flush_policy() -> String;
}

pub struct Check {
    pub problems: Vec<String>,
    pub recover_s: f64,
}

/// Counters of the storage layer, read at the window's boundaries.
#[derive(Clone, Copy, Default, Debug)]
pub struct StoreReading {
    pub versions: u64,
    pub read_locks: u64,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub ebr_backlog: u64,
    pub segments: u64,
}

impl StoreReading {
    fn take(db: &Database, dir: Option<&Path>) -> Self {
        let store = db.store();
        let mut r = StoreReading {
            versions: store.version_count() as u64,
            ..Default::default()
        };
        if let Some(mv) = store.as_any().downcast_ref::<MvStore>() {
            let ebr = mv.reclamation_stats();
            r.ebr_backlog = ebr.retired.saturating_sub(ebr.reclaimed);
            r.read_locks = mv.read_stats().read_lock_acquisitions();
        }
        if let Some(log) = store.as_any().downcast_ref::<LogStore>() {
            r.fsyncs = log.fsync_count();
            r.segments = log.segment_count() as u64;
        }
        if let Some(dir) = dir {
            r.wal_bytes = sys::dir_bytes(dir);
        }
        r
    }
}

/// What the main thread reads at each window boundary.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub cpu_s: f64,
    pub rss: u64,
    pub steal_ticks: u64,
    pub host_ticks: u64,
    pub store: StoreReading,
}

impl Reading {
    fn take(db: &Database, dir: Option<&Path>) -> Self {
        let (steal_ticks, host_ticks) = sys::host_steal_ticks();
        Reading {
            cpu_s: sys::process_cpu_s(),
            rss: sys::rss_bytes(),
            steal_ticks,
            host_ticks,
            store: StoreReading::take(db, dir),
        }
    }
}

/// The window is cut into slices of this length, by completion time.
pub const SLICE: Duration = Duration::from_secs(1);

/// Logical transactions that completed within the window.
#[derive(Default, Debug)]
pub struct WindowStats {
    pub commits: u64,
    pub failed: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
    pub fcw: u64,
    /// Per slice, each committed transaction's time from its first
    /// `begin` to its acknowledged `commit`, retries included.
    pub slices: Vec<Vec<u64>>,
}

impl WindowStats {
    pub fn attempted(&self) -> u64 {
        self.commits + self.failed
    }

    fn record_commit(&mut self, slice: usize, latency_us: u64) {
        self.commits += 1;
        if self.slices.len() <= slice {
            self.slices.resize_with(slice + 1, Vec::new);
        }
        self.slices[slice].push(latency_us);
    }

    fn merge(&mut self, other: WindowStats) {
        self.commits += other.commits;
        self.failed += other.failed;
        self.deadlocks += other.deadlocks;
        self.timeouts += other.timeouts;
        self.fcw += other.fcw;
        if self.slices.len() < other.slices.len() {
            self.slices.resize_with(other.slices.len(), Vec::new);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
    }

    /// Every latency of the window, ascending.
    pub fn latencies_us(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.slices.concat();
        all.sort_unstable();
        all
    }
}

pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
    pub traced: bool,
}

/// The measured window: its length, transactions and boundary readings.
pub struct Window {
    pub seconds: f64,
    pub stats: WindowStats,
    pub before: Reading,
    pub after: Reading,
}

impl Window {
    pub fn txn_per_s(&self) -> f64 {
        self.stats.commits as f64 / self.seconds
    }

    pub fn steal_share(&self) -> f64 {
        let host = self.after.host_ticks.saturating_sub(self.before.host_ticks);
        let steal = self
            .after
            .steal_ticks
            .saturating_sub(self.before.steal_ticks);
        trace::per_txn(steal as f64, host)
    }
}

pub struct Measured<C> {
    pub window: Window,
    /// Spans of the traced slices, and the transactions begun (and
    /// committed) in them.
    pub traced: Table,
    pub traced_commits: u64,
    pub errors: Vec<String>,
    pub clients: Vec<C>,
}

struct ClientResult<C> {
    window: WindowStats,
    table: Table,
    traced_commits: u64,
    errors: Vec<String>,
    state: C,
}

/// Run the clients through the warm-up and the window.  In a traced run,
/// transactions that begin in an odd slice of the window are traced and
/// the others are not, so both halves see the same stretch of the run.
pub fn run<W: Workload>(
    w: &W,
    db: &Database,
    clients: Vec<W::Client>,
    seed: u64,
    timing: &Timing,
    dir: Option<&Path>,
) -> Measured<W::Client> {
    let from = Instant::now() + timing.warmup;
    let until = from + timing.window;
    let (readings, results) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                s.spawn(move || client_loop(w, db, i, state, seed, (from, until), timing.traced))
            })
            .collect();
        let readings: Vec<Reading> = [from, until]
            .iter()
            .map(|&b| {
                std::thread::sleep(b.saturating_duration_since(Instant::now()));
                Reading::take(db, dir)
            })
            .collect();
        let results: Vec<ClientResult<W::Client>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (readings, results)
    });
    let mut window = Window {
        seconds: timing.window.as_secs_f64(),
        stats: WindowStats::default(),
        before: readings[0],
        after: readings[1],
    };
    let mut traced = Table::default();
    let mut traced_commits = 0;
    let mut errors = Vec::new();
    let mut states = Vec::new();
    for r in results {
        window.stats.merge(r.window);
        traced.merge(r.table);
        traced_commits += r.traced_commits;
        errors.extend(r.errors);
        states.push(r.state);
    }
    // A slice in which nothing committed still counts, as zero.
    let slices = timing.window.as_nanos().div_ceil(SLICE.as_nanos()) as usize;
    window.stats.slices.resize_with(slices, Vec::new);
    for slice in &mut window.stats.slices {
        slice.sort_unstable();
    }
    Measured {
        window,
        traced,
        traced_commits,
        errors,
        clients: states,
    }
}

fn client_loop<W: Workload>(
    w: &W,
    db: &Database,
    client: usize,
    mut state: W::Client,
    seed: u64,
    (from, until): (Instant, Instant),
    trace_odd_slices: bool,
) -> ClientResult<W::Client> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let slice_of =
        |t: Instant| (t.saturating_duration_since(from).as_nanos() / SLICE.as_nanos()) as usize;
    let mut window = WindowStats::default();
    let mut traced_commits = 0;
    let mut errors = Vec::new();
    loop {
        let begun = Instant::now();
        if begun >= until {
            break;
        }
        let traced = trace_odd_slices && begun >= from && slice_of(begun) % 2 == 1;
        trace::set_active(traced);
        let plan = w.plan(&mut rng, &state);
        let (mut deadlocks, mut timeouts, mut fcw) = (0, 0, 0);
        let outcome = trace::span(Span::Txn, || loop {
            match w.attempt(db, &plan) {
                Err(TxnError::Deadlock) => {
                    deadlocks += 1;
                    trace::add(Count::DeadlockAborts, 1);
                }
                Err(TxnError::LockTimeout) => {
                    timeouts += 1;
                    trace::add(Count::TimeoutAborts, 1);
                }
                Err(TxnError::FirstCommitterConflict { .. }) => {
                    fcw += 1;
                    trace::add(Count::FcwAborts, 1);
                }
                other => break other,
            }
        });
        let done = Instant::now();
        // Only transactions that complete inside the window count.
        if (from..until).contains(&done) {
            match outcome {
                Ok(()) => {
                    let us = (done - begun).as_micros();
                    window.record_commit(slice_of(done), us.try_into().unwrap_or(u64::MAX));
                }
                Err(_) => window.failed += 1,
            }
            window.deadlocks += deadlocks;
            window.timeouts += timeouts;
            window.fcw += fcw;
        }
        match outcome {
            Ok(()) => {
                traced_commits += u64::from(traced);
                w.committed(&mut state, &plan);
            }
            Err(e) if errors.len() < 5 => errors.push(e.to_string()),
            Err(_) => {}
        }
        w.between(&mut state);
    }
    trace::set_active(false);
    ClientResult {
        window,
        table: trace::take(),
        traced_commits,
        errors,
        state,
    }
}
