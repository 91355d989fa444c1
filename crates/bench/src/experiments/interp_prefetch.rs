//! Storage-prefetch gate: the same storage-heavy blocks execute against
//! the flat accounts-DB backend with the prefetch subsystem enabled and
//! disabled, and prefetch must win wall-clock on most of them.
//!
//! Two phases:
//!
//! 1. **Parity** (fixture scale): every workload runs sequentially on the
//!    `State` backend (the oracle), then through the speculative engine
//!    against a flat store with prefetch off and on. Receipts and merkle
//!    roots must be bit-identical across all three — prefetch is
//!    observationally invisible or it does not ship.
//! 2. **Scale**: the fixture state is padded to a ≥1M-account universe
//!    (override with `MTPU_ACCOUNTSDB_ACCOUNTS`), bootstrapped into a
//!    flat store once, and each workload is timed best-of-RUNS with
//!    prefetch off (first, so the warm cache stays cold) and then on.
//!    The off runs pay a positional file read per storage miss; the on
//!    runs overlap admission-hint warming with execution and batch the
//!    plan-resolved keys at frame entry.
//!
//! Two synthetic contracts make the statically-resolvable path load-bearing:
//! `const-ledger` sums 48 constant-slot SLOADs (every key lands in the
//! frame-entry prefetch plan) and `striped-scan` is an 8-arm selector
//! dispatcher whose arms each read a disjoint 16-slot stripe (the plan's
//! dispatch-arm walk picks the stripe from calldata). The TOP8 workloads
//! (Tether, proxy, WETH9) cover the keccak-keyed ledgers that only the
//! admission-time rw-set hints can warm.

use crate::harness::render_table;
use mtpu_accountsdb::AccountsDb;
use mtpu_asm::Assembler;
use mtpu_contracts::{call_data, selector, Fixture};
use mtpu_evm::opcode::Opcode;
use mtpu_evm::tx::{BlockHeader, Receipt, Transaction};
use mtpu_evm::{delta_merkle_root, execute_block, set_prefetch_enabled, State};
use mtpu_mempool::{BlockPacker, Mempool, PackedBlock, PackerConfig, PoolConfig};
use mtpu_parexec::{ParExecutor, TxHints};
use mtpu_primitives::{Address, SplitMix64, U256};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions per workload block.
const TXS: usize = 192;
/// Timed runs per mode (best run reported).
const RUNS: usize = 5;
/// Parexec worker threads.
const THREADS: usize = 4;
/// Distinct accounts in the scale phase.
const DEFAULT_ACCOUNTS: u64 = 1_000_000;
/// Prefetch must win at least this many workloads outright.
const MIN_WINS: usize = 3;

/// `const-ledger`: `settle()` reads 48 constant slots, `settleWide()`
/// reads 96 from a disjoint range.
const LEDGER_SLOTS: u64 = 48;
const LEDGER_BASE: u64 = 0x100;
const LEDGER_WIDE_SLOTS: u64 = 96;
const LEDGER_WIDE_BASE: u64 = 0x1000;
/// `striped-scan`: 8 dispatch arms, 32 slots each, stripes spread apart
/// so their flat-store locations scatter.
const STRIPE_ARMS: u64 = 8;
const STRIPE_SLOTS: u64 = 32;
const STRIPE_BASE: u64 = 0x4000;
const STRIPE_GAP: u64 = 0x400;

/// Filler accounts / ballast slots start well above everything real.
const FILLER_BASE: u64 = 0x4000_0000;
const BALLAST_BASE: u64 = 0x8000_0000;

fn ledger_address() -> Address {
    Address::from_low_u64(0xC01D_0001)
}

fn scan_address() -> Address {
    Address::from_low_u64(0xC01D_0002)
}

/// `settle()` sums [`LEDGER_SLOTS`] constant storage slots and returns
/// the sum. Every SLOAD key is a push immediate, so the whole read set
/// resolves into the frame-entry prefetch plan.
fn ledger_runtime() -> Vec<u8> {
    use Opcode::*;
    let mut a = Assembler::new();
    a.dispatcher(
        &[
            (selector("settle()"), "settle"),
            (selector("settleWide()"), "settle_wide"),
        ],
        "fallback",
    );
    a.label("settle").push(0u64);
    for k in 0..LEDGER_SLOTS {
        a.push(LEDGER_BASE + k).op(Sload).op(Add);
    }
    a.return_word();
    a.label("settle_wide").push(0u64);
    for k in 0..LEDGER_WIDE_SLOTS {
        a.push(LEDGER_WIDE_BASE + k).op(Sload).op(Add);
    }
    a.return_word();
    a.label("fallback").revert_zero();
    a.revert_anchor();
    a.assemble().expect("const-ledger assembles")
}

/// `scan0()..scan7()` each sum a disjoint [`STRIPE_SLOTS`]-slot stripe.
/// The prefetch plan walks the dispatcher arms, so the calldata selector
/// picks which stripe gets prefetched at frame entry.
fn scan_runtime() -> Vec<u8> {
    use Opcode::*;
    let mut a = Assembler::new();
    let names: Vec<String> = (0..STRIPE_ARMS).map(|i| format!("scan{i}()")).collect();
    let labels: Vec<String> = (0..STRIPE_ARMS).map(|i| format!("arm{i}")).collect();
    let entries: Vec<([u8; 4], &str)> = names
        .iter()
        .zip(&labels)
        .map(|(n, l)| (selector(n), l.as_str()))
        .collect();
    a.dispatcher(&entries, "fallback");
    for (i, label) in labels.iter().enumerate() {
        a.label(label).push(0u64);
        for j in 0..STRIPE_SLOTS {
            a.push(STRIPE_BASE + i as u64 * STRIPE_GAP + j)
                .op(Sload)
                .op(Add);
        }
        a.return_word();
    }
    a.label("fallback").revert_zero();
    a.revert_anchor();
    a.assemble().expect("striped-scan assembles")
}

/// Installs both synthetic contracts with nonzero values in every slot
/// their code reads, so the reads resolve through the flat store instead
/// of short-circuiting on absent keys.
fn install_contracts(state: &mut State) {
    state.set_code(ledger_address(), ledger_runtime());
    for k in 0..LEDGER_SLOTS {
        state.set_storage(
            ledger_address(),
            U256::from(LEDGER_BASE + k),
            U256::from(k + 7),
        );
    }
    for k in 0..LEDGER_WIDE_SLOTS {
        state.set_storage(
            ledger_address(),
            U256::from(LEDGER_WIDE_BASE + k),
            U256::from(k + 11),
        );
    }
    state.set_code(scan_address(), scan_runtime());
    for i in 0..STRIPE_ARMS {
        for j in 0..STRIPE_SLOTS {
            state.set_storage(
                scan_address(),
                U256::from(STRIPE_BASE + i * STRIPE_GAP + j),
                U256::from(i * 100 + j + 3),
            );
        }
    }
}

const USERS: u64 = mtpu_contracts::fixture::USER_COUNT;

struct Workload {
    name: &'static str,
    txs: Vec<Transaction>,
}

fn build_workloads(fx: &Fixture) -> Vec<Workload> {
    let mut rng = SplitMix64::seed_from_u64(0x5710_4A6E);
    let mut out = Vec::new();

    // Tether transfer storm: keccak-keyed ledger, warmed by rw-set hints.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        let to = Fixture::user_address((user + 3) % USERS).to_u256();
        let amount = U256::from(rng.random_range(1..900));
        txs.push(f.call_tx(user, "Tether USD", "transfer", &[to, amount]));
    }
    out.push(Workload {
        name: "usdt-transfer",
        txs,
    });

    // Delegatecall proxy: the implementation slot is a constant-key SLOAD
    // on every call, so the frame-entry plan covers it.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        let to = Fixture::user_address((user + 5) % USERS).to_u256();
        let amount = U256::from(rng.random_range(1..900));
        txs.push(f.call_tx(user, "FiatTokenProxy", "transfer", &[to, amount]));
    }
    out.push(Workload {
        name: "proxy-dispatch",
        txs,
    });

    // WETH9 deposit/transfer mix.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        if i % 2 == 0 {
            let mut tx = f.call_tx(user, "WETH9", "deposit", &[]);
            tx.value = U256::from(rng.random_range(1..100));
            txs.push(tx);
        } else {
            let to = Fixture::user_address((user + 9) % USERS).to_u256();
            let amount = U256::from(rng.random_range(1..50));
            txs.push(f.call_tx(user, "WETH9", "transfer", &[to, amount]));
        }
    }
    out.push(Workload {
        name: "weth9-storm",
        txs,
    });

    // Fully plan-resolvable: every tx reads the same 48 constant slots.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        let nonce = f.next_nonce(user);
        txs.push(Transaction::call(
            Fixture::user_address(user),
            ledger_address(),
            call_data("settle()", &[]),
            nonce,
        ));
    }
    out.push(Workload {
        name: "const-ledger",
        txs,
    });

    // Same contract, twice the read set per transaction.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        let nonce = f.next_nonce(user);
        txs.push(Transaction::call(
            Fixture::user_address(user),
            ledger_address(),
            call_data("settleWide()", &[]),
            nonce,
        ));
    }
    out.push(Workload {
        name: "wide-ledger",
        txs,
    });

    // Dispatch-arm walk: the selector decides which stripe is read.
    let mut f = fx.clone();
    let mut txs = Vec::with_capacity(TXS);
    for i in 0..TXS as u64 {
        let user = 1 + i % (USERS - 1);
        let nonce = f.next_nonce(user);
        let arm = i % STRIPE_ARMS;
        txs.push(Transaction::call(
            Fixture::user_address(user),
            scan_address(),
            call_data(&format!("scan{arm}()"), &[]),
            nonce,
        ));
    }
    out.push(Workload {
        name: "striped-scan",
        txs,
    });

    out
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mtpu-bench-prefetch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Admits the workload into a fresh pool and packs it into one block.
/// Packing runs admission preflight against the flat store, so the
/// returned rw-sets are the exact hints the node driver would fire.
fn pack_workload(db: &AccountsDb, txs: &[Transaction]) -> PackedBlock {
    let pool = Mempool::new(PoolConfig {
        max_txs: 4096,
        max_per_sender: 4096,
        ..PoolConfig::default()
    });
    for tx in txs {
        pool.admit(tx.clone(), db).expect("workload tx admits");
    }
    // Gas budget sized for TXS transactions at the 2M default gas limit.
    let packer = BlockPacker::new(PackerConfig {
        max_txs: TXS,
        gas_limit: 512_000_000,
        ..PackerConfig::default()
    });
    let packed = packer.pack(&pool, header(1));
    assert_eq!(
        packed.block.transactions.len(),
        txs.len(),
        "packer must pack the whole workload"
    );
    packed
}

/// Fixture-scale parity: sequential oracle vs flat store with prefetch
/// off and on; receipts and roots must agree three ways per workload.
fn parity(base: &State, workloads: &[Workload]) -> usize {
    let dir = scratch_dir("parity");
    let db = Arc::new(AccountsDb::open(&dir).expect("open parity db"));
    db.bootstrap_from_state(base, 0);
    db.flush_up_to(0).expect("flush parity genesis");
    db.enable_prefetch();
    let exec = ParExecutor::new(THREADS);

    let mut checked = 0usize;
    for w in workloads {
        let packed = pack_workload(&db, &w.txs);
        let hints = packed.prefetch_hints();

        let mut oracle_state = base.clone();
        let oracle_receipts = execute_block(&mut oracle_state, &packed.block);
        assert!(
            oracle_receipts.iter().all(|r| r.success),
            "{}: every transaction must succeed",
            w.name
        );
        let oracle_root = oracle_state.merkle_root();

        set_prefetch_enabled(false);
        let off =
            exec.execute_block_delta_with_dag_hints(db.as_ref(), &packed.block, &packed.graph, &[]);
        set_prefetch_enabled(true);
        let on = exec.execute_block_delta_with_dag_hints(
            db.as_ref(),
            &packed.block,
            &packed.graph,
            &hints,
        );

        for (mode, r) in [("off", &off), ("on", &on)] {
            assert_eq!(
                r.receipts, oracle_receipts,
                "{}: prefetch {mode} receipts diverged from the sequential oracle",
                w.name
            );
            assert_eq!(
                delta_merkle_root(base, &r.delta),
                oracle_root,
                "{}: prefetch {mode} root diverged from the sequential oracle",
                w.name
            );
        }
        checked += 1;
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    checked
}

/// The prefetch gate: parity at fixture scale, then off/on wall-clock on
/// a padded flat universe. The `prefetch wins: N/M` and `parity: OK`
/// lines are machine-checked by `scripts/bench_smoke.sh`.
pub fn prefetch_gate() -> String {
    let mut fx = Fixture::new();
    install_contracts(&mut fx.state);
    let workloads = build_workloads(&fx);

    let checked = parity(&fx.state, &workloads);

    // Scale phase: pad the fixture universe with filler accounts (and
    // ballast slots on the synthetic contracts, so their slot indexes are
    // deep) before bootstrapping the flat store once.
    let accounts: u64 = std::env::var("MTPU_ACCOUNTSDB_ACCOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ACCOUNTS);
    let build_started = Instant::now();
    let mut big = fx.state.clone();
    for i in 0..accounts {
        big.credit(Address::from_low_u64(FILLER_BASE + i), U256::ONE);
    }
    for i in 0..accounts / 8 {
        let target = if i % 2 == 0 {
            ledger_address()
        } else {
            scan_address()
        };
        big.set_storage(target, U256::from(BALLAST_BASE + i), U256::ONE);
    }
    let dir = scratch_dir("scale");
    let db = Arc::new(AccountsDb::open(&dir).expect("open scale db"));
    db.bootstrap_from_state(&big, 0);
    db.flush_up_to(0).expect("flush scale genesis");
    let build_wall = build_started.elapsed();
    let indexed = db.stats().indexed_accounts;

    let exec = ParExecutor::new(THREADS);
    let packed: Vec<PackedBlock> = workloads
        .iter()
        .map(|w| pack_workload(&db, &w.txs))
        .collect();
    let all_hints: Vec<Vec<TxHints>> = packed.iter().map(PackedBlock::prefetch_hints).collect();

    let time_block = |p: &PackedBlock, hints: &[TxHints]| -> (Duration, Vec<Receipt>) {
        let mut receipts: Vec<Receipt> = Vec::new();
        let wall = (0..RUNS)
            .map(|_| {
                let t0 = Instant::now();
                let r =
                    exec.execute_block_delta_with_dag_hints(db.as_ref(), &p.block, &p.graph, hints);
                let wall = t0.elapsed();
                receipts = r.receipts;
                wall
            })
            .min()
            .expect("RUNS > 0");
        (wall, receipts)
    };

    // Off first: the warm prefetch cache is only ever populated by hint
    // jobs, so the off runs measure the cold positional-read path.
    set_prefetch_enabled(false);
    let off: Vec<(Duration, Vec<Receipt>)> = packed.iter().map(|p| time_block(p, &[])).collect();

    db.enable_prefetch();
    set_prefetch_enabled(true);
    let telemetry = mtpu_telemetry::enabled();
    let counter = |name: &str| mtpu_telemetry::global().counter(name).get();
    let before = [
        counter("evm.prefetch.planned"),
        counter("evm.prefetch.issued"),
        counter("evm.prefetch.hits"),
        counter("evm.prefetch.stale"),
    ];
    let on: Vec<(Duration, Vec<Receipt>)> = packed
        .iter()
        .zip(&all_hints)
        .map(|(p, hints)| time_block(p, hints))
        .collect();
    let [planned, issued, hits, stale] = [
        counter("evm.prefetch.planned") - before[0],
        counter("evm.prefetch.issued") - before[1],
        counter("evm.prefetch.hits") - before[2],
        counter("evm.prefetch.stale") - before[3],
    ];

    let mut rows = Vec::new();
    let mut wins = 0usize;
    for (i, w) in workloads.iter().enumerate() {
        let txs = w.txs.len() as u64;
        let (off_wall, off_receipts) = &off[i];
        let (on_wall, on_receipts) = &on[i];
        assert_eq!(
            on_receipts, off_receipts,
            "{}: prefetch on/off receipts diverged at scale",
            w.name
        );
        let off_ns = off_wall.as_nanos() as u64 / txs;
        let on_ns = on_wall.as_nanos() as u64 / txs;
        let win = on_ns < off_ns;
        wins += win as usize;
        rows.push(vec![
            w.name.to_string(),
            format!("{txs}"),
            format!("{off_ns}"),
            format!("{on_ns}"),
            if on_ns == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", off_ns as f64 / on_ns as f64)
            },
            (if win { "yes" } else { "no" }).to_string(),
        ]);
    }
    let total = workloads.len();
    assert!(
        wins >= MIN_WINS,
        "prefetch must win at least {MIN_WINS} of {total} storage-heavy workloads, won {wins}\n{rows:#?}"
    );
    if telemetry {
        assert!(hits > 0, "telemetry run recorded zero prefetch hits");
    }

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let hit_line = if telemetry {
        let ratio = if issued == 0 {
            0.0
        } else {
            100.0 * hits as f64 / issued as f64
        };
        format!(
            "prefetch hits: {hits} ({planned} planned, {issued} issued, {stale} stale, \
             {ratio:.1}% of issued consumed)\n"
        )
    } else {
        String::new()
    };

    render_table(
        &format!(
            "Storage prefetch gate ({indexed} flat accounts, {TXS} txs, \
             {THREADS} threads, best of {RUNS})"
        ),
        &["workload", "txs", "off ns/tx", "on ns/tx", "speedup", "win"],
        &rows,
    ) + &format!(
        "\nschema: interp-prefetch/v1\nparity: OK ({checked} workloads: sequential oracle \
         vs flat store, prefetch off and on,\nreceipts and merkle roots bit-identical \
         three ways; on/off receipts also\nasserted identical at scale)\n\
         prefetch wins: {wins}/{total}\n{hit_line}\
         universe build + bootstrap: {build_wall:.2?}. Off runs pay a positional file\n\
         read per storage miss; on runs warm the accounts-DB cache from admission\n\
         rw-set hints and batch plan-resolved keys at frame entry. Disable at runtime\n\
         with MTPU_NO_PREFETCH=1 (see DESIGN.md \u{a7}15).\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::trace::NoopTracer;

    /// Both synthetic contracts assemble, and a direct call returns the
    /// expected slot sums (i.e. the bench measures real storage reads).
    #[test]
    fn synthetic_contracts_sum_their_slots() {
        let mut fx = Fixture::new();
        install_contracts(&mut fx.state);
        let settle = Transaction::call(
            Fixture::user_address(1),
            ledger_address(),
            call_data("settle()", &[]),
            0,
        );
        let r = mtpu_evm::execute_transaction(
            &mut fx.state,
            &BlockHeader::default(),
            &settle,
            &mut NoopTracer,
        )
        .expect("settle validates");
        assert!(r.success, "settle() must succeed");
        let want: u64 = (0..LEDGER_SLOTS).map(|k| k + 7).sum();
        assert_eq!(r.output, U256::from(want).to_be_bytes().to_vec());

        let scan = Transaction::call(
            Fixture::user_address(2),
            scan_address(),
            call_data("scan3()", &[]),
            0,
        );
        let r = mtpu_evm::execute_transaction(
            &mut fx.state,
            &BlockHeader::default(),
            &scan,
            &mut NoopTracer,
        )
        .expect("scan validates");
        assert!(r.success, "scan3() must succeed");
        let want: u64 = (0..STRIPE_SLOTS).map(|j| 3 * 100 + j + 3).sum();
        assert_eq!(r.output, U256::from(want).to_be_bytes().to_vec());
    }
}
