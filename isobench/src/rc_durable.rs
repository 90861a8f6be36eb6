//! `rc_durable`: READ COMMITTED on the durable log store at the engine
//! defaults — a 16-shard write-ahead log and one fsync per writing commit
//! (`GroupCommit::Off`).
//!
//! Write-heavy: each writing transaction bumps counter rows its client
//! owns and inserts an audit row, so the write-ahead append and the commit
//! fsync dominate; short read-only transactions run beside them.  Clients
//! never write each other's rows, so the counters are exact even though
//! READ COMMITTED allows lost updates (P4) on shared rows.

use crate::closed_loop::{
    self, int, run_txn, Built, Check, DataDir, Rng, Workload, LOCK_TIMEOUT_MS,
};
use critique_core::IsolationLevel;
use critique_engine::{BackendKind, Database, Durability, EngineConfig, TxnError};
use critique_storage::{LogStore, Row, RowId, RowPredicate, StorageBackend, DEFAULT_SHARDS};
use std::time::Instant;

const COUNTERS: &str = "counters";
const AUDIT: &str = "audit";
/// Counter rows per client: slot 0 counts the client's commits, the
/// others each count the commits that picked them.
const ROWS_PER_CLIENT: usize = 1024;
const WRITE_PERCENT: usize = 80;

pub struct RcDurable {
    /// `rows[client][slot]`.
    rows: Vec<Vec<RowId>>,
}

pub enum Plan {
    Write { client: usize, slot: usize },
    Read([RowId; 4]),
}

pub struct Client {
    id: usize,
    /// Writing transactions whose commit was acknowledged.
    acked: u64,
}

impl Workload for RcDurable {
    type Plan = Plan;
    type Client = Client;

    const NAME: &'static str = "rc_durable";

    fn setup(_seed: u64, clients: usize, traced: bool) -> (Self, Built<Client>) {
        let dir = DataDir::new(Self::NAME);
        let config = EngineConfig::new(IsolationLevel::ReadCommitted)
            .blocking(LOCK_TIMEOUT_MS)
            .without_history()
            .with_backend(BackendKind::LogStructured)
            .with_durability(Durability::Fsync);
        let db = closed_loop::open(config, Some(dir.path()), traced);
        let ids = closed_loop::load(
            &db,
            COUNTERS,
            None,
            (0..clients * ROWS_PER_CLIENT).map(|i| {
                Row::new()
                    .with("client", (i / ROWS_PER_CLIENT) as i64)
                    .with("slot", (i % ROWS_PER_CLIENT) as i64)
                    .with("n", 0)
            }),
        );
        db.store().create_table(AUDIT);
        let rows = ids.chunks(ROWS_PER_CLIENT).map(<[RowId]>::to_vec).collect();
        let built = Built {
            db,
            clients: (0..clients).map(|id| Client { id, acked: 0 }).collect(),
            dir: Some(dir),
        };
        (RcDurable { rows }, built)
    }

    fn plan(&self, rng: &mut Rng, client: &Client) -> Plan {
        if rng.below(100) < WRITE_PERCENT {
            Plan::Write {
                client: client.id,
                slot: 1 + rng.below(ROWS_PER_CLIENT - 1),
            }
        } else {
            Plan::Read(std::array::from_fn(|_| {
                self.rows[rng.below(self.rows.len())][rng.below(ROWS_PER_CLIENT)]
            }))
        }
    }

    fn attempt(&self, db: &Database, plan: &Plan) -> Result<(), TxnError> {
        run_txn(db, |tx| match plan {
            Plan::Write { client, slot } => {
                let (total, slot) = (self.rows[*client][0], self.rows[*client][*slot]);
                let n = int(tx.read_for_update(COUNTERS, total)?, "n");
                tx.update(COUNTERS, total, Row::new().with("n", n + 1))?;
                let s = int(tx.read_for_update(COUNTERS, slot)?, "n");
                tx.update(COUNTERS, slot, Row::new().with("n", s + 1))?;
                let audit = Row::new().with("client", *client as i64).with("seq", n + 1);
                tx.insert(AUDIT, audit).map(drop)
            }
            Plan::Read(ids) => ids
                .iter()
                .try_for_each(|id| tx.read(COUNTERS, *id).map(drop)),
        })
    }

    fn committed(&self, client: &mut Client, plan: &Plan) {
        if matches!(plan, Plan::Write { .. }) {
            client.acked += 1;
        }
    }

    /// Every client's counters and audit rows must equal its acknowledged
    /// commits; then, after a clean stop, recovery from the write-ahead
    /// directory must rebuild exactly the committed rows.
    fn check(&self, built: Built<Client>) -> Check {
        let Built { db, clients, dir } = built;
        let mut problems = Vec::new();
        let counters = db.scan_committed(&RowPredicate::whole_table(COUNTERS));
        let audit = db.scan_committed(&RowPredicate::whole_table(AUDIT));
        for client in &clients {
            let id = client.id as i64;
            let mine = |rows: &[(RowId, Row)], column: &str| -> Vec<i64> {
                rows.iter()
                    .filter(|(_, r)| r.get_int("client") == Some(id))
                    .filter_map(|(_, r)| r.get_int(column))
                    .collect()
            };
            let counts = mine(&counters, "n");
            let acked = client.acked as i64;
            if counts.first() != Some(&acked) {
                problems.push(format!(
                    "client {id}: commit counter {:?}, acknowledged {acked}",
                    counts.first()
                ));
            }
            let slots: i64 = counts.iter().skip(1).sum();
            if slots != acked {
                problems.push(format!(
                    "client {id}: slot counters sum to {slots}, acknowledged {acked}"
                ));
            }
            let mut seqs = mine(&audit, "seq");
            seqs.sort_unstable();
            if !seqs.iter().copied().eq(1..=acked) {
                problems.push(format!(
                    "client {id}: {} audit rows, expected sequence 1..={acked}",
                    seqs.len()
                ));
            }
        }
        drop(db);
        let dir = dir.expect("rc_durable runs on a write-ahead directory");
        let started = Instant::now();
        let recovered = match LogStore::recover(dir.path()) {
            Ok(store) => store,
            Err(e) => {
                problems.push(format!("recovery failed: {e}"));
                return Check {
                    problems,
                    recover_s: 0.0,
                };
            }
        };
        let recover_s = started.elapsed().as_secs_f64();
        for (table, before) in [(COUNTERS, &counters), (AUDIT, &audit)] {
            let after = recovered.scan_latest_committed(&RowPredicate::whole_table(table));
            if &after != before {
                problems.push(format!(
                    "recovered {table}: {} rows differ from the {} committed before the stop",
                    after.len(),
                    before.len()
                ));
            }
        }
        Check {
            problems,
            recover_s,
        }
    }

    fn flush_policy() -> String {
        format!(
            "fsync per writing commit (GroupCommit::Off), {DEFAULT_SHARDS}-shard write-ahead log"
        )
    }
}
