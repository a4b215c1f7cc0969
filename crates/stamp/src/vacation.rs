//! `vacation`: travel-reservation database.
//!
//! Mirrors STAMP `vacation`: a client session queries several rows of the
//! car/room/flight tables (reads + compute), picks the cheapest available
//! item, and reserves it — decrementing capacity, charging the customer,
//! and appending a reservation record. The high-contention input reserves
//! up to two items per transaction (larger write sets, ~68 B vs ~44 B).
//!
//! The session transaction body (`run_session`) and the driver ([`run`])
//! are written once against [`TxAccess`]. All RNG decisions (customer,
//! tables, queried rows) are drawn up front into `Session` plans so the
//! body is retry-safe; the reservation slot is claimed by a
//! read-modify-write of the persistent record counter inside the
//! transaction.

use specpmt_txn::{run_tx, TxAccess};

use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Number of tables (cars, rooms, flights).
pub const TABLES: usize = 3;

/// Configuration for the vacation workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VacationCfg {
    /// Rows per table.
    pub rows: usize,
    /// Customers.
    pub customers: usize,
    /// Client sessions (transactions).
    pub sessions: usize,
    /// Rows examined per item query.
    pub queries_per_item: usize,
    /// Maximum items reserved per session (1 = low contention, 2 = high).
    pub max_items: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost per examined row (ns).
    pub query_compute_ns: u64,
}

impl VacationCfg {
    /// Low-contention preset (one item per session).
    pub fn low(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self {
                rows: 32,
                customers: 16,
                sessions: 60,
                queries_per_item: 4,
                max_items: 1,
                seed: 21,
                query_compute_ns: 400,
            },
            Scale::Small => Self {
                rows: 4096,
                customers: 1024,
                sessions: 3000,
                queries_per_item: 8,
                max_items: 1,
                seed: 21,
                query_compute_ns: 400,
            },
        }
    }

    /// High-contention preset (up to two items per session).
    pub fn high(scale: Scale) -> Self {
        let mut cfg = Self::low(scale);
        cfg.max_items = 2;
        cfg.queries_per_item = cfg.queries_per_item / 2 + 1;
        cfg.seed = 22;
        cfg
    }
}

const ROW_BYTES: usize = 8; // capacity u32 | price u32
const CUST_BYTES: usize = 8; // spent u32 | trips u32
const RESV_BYTES: usize = 16; // customer u32 | table u32 | row u32 | price u32

struct Layout {
    tables: usize,
    customers: usize,
    resv_count: usize,
    resv: usize,
}

fn layout(cfg: &VacationCfg, base: usize) -> Layout {
    let tables = base;
    let customers = tables + TABLES * cfg.rows * ROW_BYTES;
    let resv_count = customers + cfg.customers * CUST_BYTES;
    let resv = resv_count + 8;
    Layout { tables, customers, resv_count, resv }
}

fn region_bytes(cfg: &VacationCfg) -> usize {
    TABLES * cfg.rows * ROW_BYTES
        + cfg.customers * CUST_BYTES
        + 8
        + cfg.sessions * cfg.max_items * RESV_BYTES
}

/// A client session's pre-drawn decisions: the customer and, per item,
/// the table and the rows to examine. Drawing everything up front keeps
/// the transaction body free of volatile side effects (retry-safe).
struct Session {
    cust: usize,
    items: Vec<(usize, Vec<usize>)>,
}

fn gen_initial_rows(cfg: &VacationCfg) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..TABLES * cfg.rows).map(|_| (1 + rng.below(4) as u32, 50 + rng.below(950) as u32)).collect()
}

fn gen_sessions(cfg: &VacationCfg) -> Vec<Session> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0xABCD);
    (0..cfg.sessions)
        .map(|s| {
            let cust = rng.below(cfg.customers);
            let items = (0..1 + (s % cfg.max_items))
                .map(|_| {
                    let table = rng.below(TABLES);
                    let rows = (0..cfg.queries_per_item).map(|_| rng.below(cfg.rows)).collect();
                    (table, rows)
                })
                .collect();
            Session { cust, items }
        })
        .collect()
}

/// Volatile mirror used for both initialization and verification.
struct Mirror {
    rows: Vec<(u32, u32)>,      // (capacity, price) per table row
    customers: Vec<(u32, u32)>, // (spent, trips)
    reservations: Vec<(u32, u32, u32, u32)>,
}

fn simulate(cfg: &VacationCfg, initial_rows: &[(u32, u32)], sessions: &[Session]) -> Mirror {
    let mut m = Mirror {
        rows: initial_rows.to_vec(),
        customers: vec![(0, 0); cfg.customers],
        reservations: Vec::new(),
    };
    for sess in sessions {
        for (table, rows) in &sess.items {
            // Examine rows, choose the cheapest with capacity.
            let mut best: Option<(usize, u32)> = None;
            for &r in rows {
                let (cap, price) = m.rows[table * cfg.rows + r];
                if cap > 0 && best.is_none_or(|(_, bp)| price < bp) {
                    best = Some((r, price));
                }
            }
            if let Some((r, price)) = best {
                let idx = table * cfg.rows + r;
                m.rows[idx].0 -= 1;
                m.customers[sess.cust].0 += price;
                m.customers[sess.cust].1 += 1;
                m.reservations.push((sess.cust as u32, *table as u32, r as u32, price));
            }
        }
    }
    m
}

/// Session transaction body: query each planned item's rows, reserve the
/// cheapest available, charge the customer, and append a reservation
/// record at a slot claimed by a read-modify-write of the persistent
/// record counter.
///
/// Doom-safe: doomed capacity reads return 0, so no item qualifies and
/// no write is attempted; the residual `cap > 0` re-check guards the
/// decrement against any zero read (never underflows).
fn run_session<A: TxAccess>(tx: &mut A, lay: &Layout, cfg: &VacationCfg, sess: &Session) {
    for (table, rows) in &sess.items {
        tx.compute(cfg.query_compute_ns * cfg.queries_per_item as u64);
        let mut best: Option<(usize, u32)> = None;
        for &r in rows {
            let a = lay.tables + (table * cfg.rows + r) * ROW_BYTES;
            let cap = tx.read_u32(a);
            let price = tx.read_u32(a + 4);
            if cap > 0 && best.is_none_or(|(_, bp)| price < bp) {
                best = Some((r, price));
            }
        }
        if let Some((r, price)) = best {
            let a = lay.tables + (table * cfg.rows + r) * ROW_BYTES;
            let cap = tx.read_u32(a);
            if cap == 0 {
                continue; // only reachable on a doomed attempt
            }
            tx.write_u32(a, cap - 1);
            let ca = lay.customers + sess.cust * CUST_BYTES;
            let spent = tx.read_u32(ca);
            let trips = tx.read_u32(ca + 4);
            tx.write_u32(ca, spent + price);
            tx.write_u32(ca + 4, trips + 1);
            let idx = tx.read_u64(lay.resv_count) as usize;
            let ra = lay.resv + idx * RESV_BYTES;
            tx.write_u32(ra, sess.cust as u32);
            tx.write_u32(ra + 4, *table as u32);
            tx.write_u32(ra + 8, r as u32);
            tx.write_u32(ra + 12, price);
            tx.write_u64(lay.resv_count, idx as u64 + 1);
        }
    }
}

/// Untimed setup: pre-populate the table rows directly (non-transactional
/// persistent initialization).
fn setup_tables<A: TxAccess>(rt: &mut A, lay: &Layout, initial_rows: &[(u32, u32)]) {
    rt.untimed(|rt| {
        for (i, &(cap, price)) in initial_rows.iter().enumerate() {
            let mut row = [0u8; ROW_BYTES];
            row[..4].copy_from_slice(&cap.to_le_bytes());
            row[4..].copy_from_slice(&price.to_le_bytes());
            rt.setup_write(lay.tables + i * ROW_BYTES, &row);
        }
    });
}

/// Runs the workload on one handle; returns the verification outcome.
///
/// Verification checks the database's accounting invariants — every
/// reservation record is priced at its row's initial price, each row's
/// capacity drop equals its record count, and each customer's
/// spent/trips equal the sum/count of their records — and that every
/// record, capacity and customer matches `simulate`'s replay exactly.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &VacationCfg) -> Result<(), String> {
    let base = setup_region(rt, region_bytes(cfg), 64);
    let lay = layout(cfg, base);
    let initial_rows = gen_initial_rows(cfg);
    let sessions = gen_sessions(cfg);
    setup_tables(rt, &lay, &initial_rows);

    for sess in &sessions {
        run_tx(rt, |tx| run_session(tx, &lay, cfg, sess));
    }

    let want = simulate(cfg, &initial_rows, &sessions);
    rt.untimed(|rt| {
        let got_count = rt.read_u64(lay.resv_count) as usize;
        if got_count > cfg.sessions * cfg.max_items {
            return Err(format!("reservation count {got_count} out of range"));
        }
        if got_count != want.reservations.len() {
            return Err(format!("reservation count {got_count} != {}", want.reservations.len()));
        }
        let mut row_resv = vec![0u32; TABLES * cfg.rows];
        let mut cust_spent = vec![0u64; cfg.customers];
        let mut cust_trips = vec![0u32; cfg.customers];
        for i in 0..got_count {
            let ra = lay.resv + i * RESV_BYTES;
            let got =
                (rt.read_u32(ra), rt.read_u32(ra + 4), rt.read_u32(ra + 8), rt.read_u32(ra + 12));
            let (cust, table, row, price) = (got.0 as usize, got.1 as usize, got.2 as usize, got.3);
            if cust >= cfg.customers || table >= TABLES || row >= cfg.rows {
                return Err(format!("reservation {i}: out-of-range fields"));
            }
            if price != initial_rows[table * cfg.rows + row].1 {
                return Err(format!("reservation {i}: price {price} mismatch"));
            }
            if got != want.reservations[i] {
                return Err(format!("reservation {i}: {got:?} != {:?}", want.reservations[i]));
            }
            row_resv[table * cfg.rows + row] += 1;
            cust_spent[cust] += price as u64;
            cust_trips[cust] += 1;
        }
        for (i, &(cap0, _)) in initial_rows.iter().enumerate() {
            let cap = rt.read_u32(lay.tables + i * ROW_BYTES);
            if cap + row_resv[i] != cap0 {
                return Err(format!("row {i}: capacity {cap} + {} != {cap0}", row_resv[i]));
            }
        }
        for c in 0..cfg.customers {
            let ca = lay.customers + c * CUST_BYTES;
            let spent = rt.read_u32(ca) as u64;
            let trips = rt.read_u32(ca + 4);
            if spent != cust_spent[c] || trips != cust_trips[c] {
                return Err(format!("customer {c}: accounting mismatch"));
            }
        }
        for (i, &(cap, _)) in want.rows.iter().enumerate() {
            let got = rt.read_u32(lay.tables + i * ROW_BYTES);
            if got != cap {
                return Err(format!("row {i}: capacity {got} != {cap}"));
            }
        }
        for (c, &(spent, trips)) in want.customers.iter().enumerate() {
            let ca = lay.customers + c * CUST_BYTES;
            if rt.read_u32(ca) != spent || rt.read_u32(ca + 4) != trips {
                return Err(format!("customer {c} state mismatch"));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_invariant_holds_in_reference() {
        let cfg = VacationCfg::low(Scale::Tiny);
        let rows = gen_initial_rows(&cfg);
        let sessions = gen_sessions(&cfg);
        let m = simulate(&cfg, &rows, &sessions);
        let initial_cap: u32 = rows.iter().map(|r| r.0).sum();
        let final_cap: u32 = m.rows.iter().map(|r| r.0).sum();
        assert_eq!(initial_cap - final_cap, m.reservations.len() as u32);
        let spent: u64 = m.customers.iter().map(|c| c.0 as u64).sum();
        let charged: u64 = m.reservations.iter().map(|r| r.3 as u64).sum();
        assert_eq!(spent, charged);
    }

    #[test]
    fn high_contention_reserves_more_items() {
        let low = VacationCfg::low(Scale::Tiny);
        let high = VacationCfg::high(Scale::Tiny);
        assert_eq!(low.max_items, 1);
        assert_eq!(high.max_items, 2);
    }

    #[test]
    fn session_plans_are_deterministic_and_sized() {
        let cfg = VacationCfg::high(Scale::Tiny);
        let sessions = gen_sessions(&cfg);
        assert_eq!(sessions.len(), cfg.sessions);
        for (s, sess) in sessions.iter().enumerate() {
            assert_eq!(sess.items.len(), 1 + (s % cfg.max_items));
            for (table, rows) in &sess.items {
                assert!(*table < TABLES);
                assert_eq!(rows.len(), cfg.queries_per_item);
            }
        }
    }
}
