//! `si_watched`: SNAPSHOT ISOLATION on MvStore with the engine defaults,
//! read-mostly, under 1024 predicate watchers and one table feed.
//!
//! SI takes no locks, so the work lands on the epoch read path (point
//! reads and long range scans), First-Committer-Wins validation at commit,
//! and the watcher fan-out every writing commit pays.  The client threads
//! drain the watchers between transactions, so draining counts in
//! throughput and CPU but not in latency.

use crate::closed_loop::{self, int, run_txn, Built, Check, Rng, Workload, LOCK_TIMEOUT_MS};
use crate::trace::{self, Count, Span};
use critique_core::IsolationLevel;
use critique_engine::{Database, EngineConfig, TxnError, Watcher};
use critique_storage::{Condition, KeyInterval, Row, RowId, RowPredicate, Timestamp};

const TABLE: &str = "accounts";
const ACCOUNTS: usize = 4096;
const BUCKET_ROWS: usize = 4;
/// One predicate watcher per bucket: 1024 disjoint `bucket` ranges.
const BUCKETS: usize = ACCOUNTS / BUCKET_ROWS;
/// A read-only transaction scans this many buckets (128 rows).
const SCAN_BUCKETS: usize = 32;
const WRITE_PERCENT: usize = 25;
/// Watchers a client drains after each of its transactions.
const DRAIN_BATCH: usize = 32;
const INITIAL: i64 = 1_000;

pub struct SiWatched {
    ids: Vec<RowId>,
}

pub enum Plan {
    Transfer { from: RowId, to: RowId, amount: i64 },
    Read { points: [RowId; 4], lo: i64 },
}

/// One subscription and what it has delivered so far.
pub struct Feed {
    watcher: Watcher,
    last_ts: Option<Timestamp>,
    events: u64,
    changes: u64,
    out_of_order: u64,
}

impl Feed {
    fn new(watcher: Watcher) -> Self {
        Feed {
            watcher,
            last_ts: None,
            events: 0,
            changes: 0,
            out_of_order: 0,
        }
    }

    /// Drain every pending event; returns how many there were.
    fn drain(&mut self) -> u64 {
        let events = self.watcher.drain();
        let n = events.len() as u64;
        for event in events {
            if self.last_ts.is_some_and(|last| event.commit_ts <= last) {
                self.out_of_order += 1;
            }
            self.last_ts = Some(event.commit_ts);
            self.events += 1;
            self.changes += event.changes.len() as u64;
        }
        n
    }
}

pub struct Client {
    feeds: Vec<Feed>,
    table_feed: Option<Feed>,
    cursor: usize,
    /// Writing transactions this client committed.
    writes: u64,
}

impl Workload for SiWatched {
    type Plan = Plan;
    type Client = Client;

    const NAME: &'static str = "si_watched";

    fn setup(_seed: u64, clients: usize, traced: bool) -> (Self, Built<Client>) {
        let config = EngineConfig::new(IsolationLevel::SnapshotIsolation)
            .blocking(LOCK_TIMEOUT_MS)
            .without_history();
        let db = closed_loop::open(config, None, traced);
        let ids = closed_loop::load(
            &db,
            TABLE,
            Some("bucket"),
            (0..ACCOUNTS).map(|i| {
                Row::new()
                    .with("bucket", (i / BUCKET_ROWS) as i64)
                    .with("balance", INITIAL)
            }),
        );
        let mut states: Vec<Client> = (0..clients)
            .map(|_| Client {
                feeds: Vec::new(),
                table_feed: None,
                cursor: 0,
                writes: 0,
            })
            .collect();
        for bucket in 0..BUCKETS {
            let watcher = db.watch_predicate(TABLE, Condition::eq("bucket", bucket as i64));
            states[bucket % clients].feeds.push(Feed::new(watcher));
        }
        states[0].table_feed = Some(Feed::new(db.watch_table(TABLE)));
        let built = Built {
            db,
            clients: states,
            dir: None,
        };
        (SiWatched { ids }, built)
    }

    fn plan(&self, rng: &mut Rng, _client: &Client) -> Plan {
        if rng.below(100) < WRITE_PERCENT {
            let (a, b) = rng.distinct_pair(|r| r.below(ACCOUNTS));
            Plan::Transfer {
                from: self.ids[a],
                to: self.ids[b],
                amount: 1 + rng.below(10) as i64,
            }
        } else {
            Plan::Read {
                points: std::array::from_fn(|_| self.ids[rng.below(ACCOUNTS)]),
                lo: rng.below(BUCKETS - SCAN_BUCKETS + 1) as i64,
            }
        }
    }

    fn attempt(&self, db: &Database, plan: &Plan) -> Result<(), TxnError> {
        run_txn(db, |tx| match plan {
            Plan::Transfer { from, to, amount } => {
                let a = int(tx.read_for_update(TABLE, *from)?, "balance");
                let b = int(tx.read_for_update(TABLE, *to)?, "balance");
                tx.update(TABLE, *from, Row::new().with("balance", a - amount))?;
                tx.update(TABLE, *to, Row::new().with("balance", b + amount))
            }
            Plan::Read { points, lo } => {
                for id in points {
                    tx.read(TABLE, *id)?;
                }
                let hi = lo + SCAN_BUCKETS as i64 - 1;
                tx.read_range(TABLE, "bucket", &KeyInterval::range(Some(*lo), Some(hi)))
                    .map(drop)
            }
        })
    }

    fn committed(&self, client: &mut Client, plan: &Plan) {
        if matches!(plan, Plan::Transfer { .. }) {
            client.writes += 1;
        }
    }

    fn between(&self, client: &mut Client) {
        trace::span(Span::WatchDrain, || {
            let mut events = 0;
            for _ in 0..DRAIN_BATCH.min(client.feeds.len()) {
                let n = client.feeds[client.cursor].drain();
                trace::note_watch_pending(n);
                events += n;
                client.cursor = (client.cursor + 1) % client.feeds.len();
            }
            if let Some(feed) = &mut client.table_feed {
                let n = feed.drain();
                trace::note_watch_pending(n);
                events += n;
            }
            trace::add(Count::WatchEvents, events);
        });
    }

    fn check(&self, mut built: Built<Client>) -> Check {
        let mut problems = Vec::new();
        let total = built
            .db
            .sum_committed(&RowPredicate::whole_table(TABLE), "balance");
        let expected = ACCOUNTS as i64 * INITIAL;
        if total != expected {
            problems.push(format!("total balance {total}, expected {expected}"));
        }
        let (mut predicate_changes, mut out_of_order, mut writes) = (0, 0, 0);
        let mut table = None;
        for client in &mut built.clients {
            writes += client.writes;
            for feed in client.feeds.iter_mut().chain(client.table_feed.as_mut()) {
                feed.drain();
                out_of_order += feed.out_of_order;
            }
            predicate_changes += client.feeds.iter().map(|f| f.changes).sum::<u64>();
            if let Some(feed) = &client.table_feed {
                table = Some((feed.events, feed.changes));
            }
        }
        let (table_events, table_changes) = table.expect("client 0 holds the table feed");
        if out_of_order != 0 {
            problems.push(format!(
                "{out_of_order} events arrived without a strictly increasing commit_ts"
            ));
        }
        if table_changes != predicate_changes {
            problems.push(format!(
                "table feed saw {table_changes} row changes, the disjoint predicate \
                 watchers {predicate_changes}"
            ));
        }
        if table_events != writes {
            problems.push(format!(
                "table feed saw {table_events} events for {writes} committed writing transactions"
            ));
        }
        Check {
            problems,
            recover_s: 0.0,
        }
    }

    fn flush_policy() -> String {
        "none: in-memory MvStore".into()
    }
}
