//! `ser_contended`: SERIALIZABLE on MvStore with the engine defaults.
//!
//! The lock manager does most of the work: two-row transfers over a skewed
//! key distribution wait on each other, hand locks off directly, and
//! deadlock on S→X upgrades (the transfer reads both rows before writing
//! either); short audits take interval predicate locks over `bucket`
//! windows that the transfers' exclusive locks must be checked against.

use crate::closed_loop::{self, int, run_txn, Built, Check, Rng, Workload, LOCK_TIMEOUT_MS};
use critique_core::IsolationLevel;
use critique_engine::{Database, EngineConfig, TxnError};
use critique_storage::{KeyInterval, Row, RowId, RowPredicate};

const TABLE: &str = "accounts";
const ACCOUNTS: usize = 4096;
const BUCKET_ROWS: usize = 64;
/// The hot set: this many accounts draw `HOT_PERCENT` of all picks.
const HOT: usize = 64;
const HOT_PERCENT: usize = 50;
const INITIAL: i64 = 1_000;

pub struct SerContended {
    ids: Vec<RowId>,
    hot: Vec<usize>,
}

pub enum Plan {
    Transfer { from: RowId, to: RowId, amount: i64 },
    Read([RowId; 4]),
    Audit { lo: i64 },
}

impl SerContended {
    fn pick(&self, rng: &mut Rng) -> usize {
        if rng.below(100) < HOT_PERCENT {
            self.hot[rng.below(HOT)]
        } else {
            rng.below(ACCOUNTS)
        }
    }
}

impl Workload for SerContended {
    type Plan = Plan;
    type Client = ();

    const NAME: &'static str = "ser_contended";

    fn setup(seed: u64, clients: usize, traced: bool) -> (Self, Built<()>) {
        let config = EngineConfig::new(IsolationLevel::Serializable)
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
        // The seed moves the hot set, not its shape: one hot account per
        // `ACCOUNTS / HOT` stretch, so every seed spreads the hot set over
        // the buckets (and the ordered index) alike.
        let stride = ACCOUNTS / HOT;
        let mut rng = Rng::new(seed);
        let hot = (0..HOT).map(|i| i * stride + rng.below(stride)).collect();
        let built = Built {
            db,
            clients: vec![(); clients],
            dir: None,
        };
        (SerContended { ids, hot }, built)
    }

    fn plan(&self, rng: &mut Rng, _client: &()) -> Plan {
        match rng.below(100) {
            0..=49 => {
                let (a, b) = rng.distinct_pair(|r| self.pick(r));
                Plan::Transfer {
                    from: self.ids[a],
                    to: self.ids[b],
                    amount: 1 + rng.below(10) as i64,
                }
            }
            50..=84 => Plan::Read(std::array::from_fn(|_| self.ids[self.pick(rng)])),
            _ => Plan::Audit {
                lo: rng.below(ACCOUNTS / BUCKET_ROWS - 1) as i64,
            },
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
            Plan::Read(ids) => ids.iter().try_for_each(|id| tx.read(TABLE, *id).map(drop)),
            Plan::Audit { lo } => tx
                .read_range(
                    TABLE,
                    "bucket",
                    &KeyInterval::range(Some(*lo), Some(lo + 1)),
                )
                .map(drop),
        })
    }

    fn check(&self, built: Built<()>) -> Check {
        let mut problems = Vec::new();
        let total = built
            .db
            .sum_committed(&RowPredicate::whole_table(TABLE), "balance");
        let expected = ACCOUNTS as i64 * INITIAL;
        if total != expected {
            problems.push(format!("total balance {total}, expected {expected}"));
        }
        let held = built.db.locks_held();
        if held != 0 {
            problems.push(format!(
                "{held} locks still held after every client finished"
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
