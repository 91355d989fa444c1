//! The spatial-temporal scheduler (`simulate_st`, PAPER.md S6) checked two
//! ways over random DAGs and generator blocks:
//!
//! * **Differential**: the whole `ScheduleResult` equals the one a plain
//!   re-statement of the scheduler produces (`reference_st` below: every
//!   dispatch rescans all transactions and sorts every eligible one). It
//!   uses only the public `Pu`, `StateBuffer`, `SchedulingTable` and
//!   `TransactionTable`, so the simulator's incremental window must pick
//!   the same transaction for the same slot at every step.
//! * **Properties**: every transaction runs exactly once, after each of
//!   its DAG parents ended; no two intervals overlap on one PU; the
//!   makespan covers the critical path and the total busy time spread
//!   over all PUs.
//!
//! The tier-1 test draws its configurations at random; the `#[ignore]`d
//! deep sweep runs every `pu_count` × `candidate_slots` pair on more DAGs
//! (`cargo test --release --test sim_schedule -- --ignored`).

// The reference scheduler keeps std's HashMap: it shares no hasher with the simulator it checks.
#![allow(clippy::disallowed_types)]

use mtpu_repro::evm::opcode::Opcode;
use mtpu_repro::evm::trace::{CallKind, FrameInfo, StorageAccess, TraceStep, TxTrace};
use mtpu_repro::evm::tx::Transaction;
use mtpu_repro::mtpu::hotspot::ContractTable;
use mtpu_repro::mtpu::pu::{Pu, StateBuffer, TxJob, TxTiming};
use mtpu_repro::mtpu::sched::{
    simulate_st, DepGraph, RwSet, ScheduleResult, SchedulingTable, SlotKey, TransactionTable,
};
use mtpu_repro::mtpu::stream::StreamTransforms;
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::primitives::{Address, B256, U256};
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::collections::HashMap;

/// SplitMix64: a small, seedable generator for the random inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// The scheduler as first written: every refill scans all transactions,
/// walks each one's parents against the running set and sorts every
/// eligible one by (redundant, V, block index) with V in a hash map.
fn reference_st(jobs: &[TxJob], graph: &DepGraph, cfg: &MtpuConfig) -> ScheduleResult {
    let n = jobs.len();
    let m = cfg.candidate_slots.clamp(1, 64);
    let mut pus: Vec<Pu> = (0..cfg.pu_count).map(|i| Pu::new(i, cfg)).collect();
    let mut buffer = StateBuffer::default();
    let mut res = ScheduleResult {
        makespan: 0,
        start: vec![0; n],
        end: vec![0; n],
        pu_of: vec![0; n],
        busy: vec![0; cfg.pu_count],
        timing: TxTiming::default(),
    };
    if n == 0 {
        return res;
    }
    let contracts: Vec<B256> = jobs.iter().map(TxJob::top_code).collect();
    let mut remaining: HashMap<B256, u32> = HashMap::new();
    for c in &contracts {
        *remaining.entry(*c).or_default() += 1;
    }
    let mut completed = vec![false; n];
    let mut staged = vec![false; n];
    let mut running: Vec<Option<usize>> = vec![None; cfg.pu_count];
    let mut free_at = vec![0u64; cfg.pu_count];
    let mut window: Vec<Option<usize>> = vec![None; m];
    let mut table = SchedulingTable::new(cfg.pu_count);
    let mut tt = TransactionTable::new(m);
    let mut done = 0usize;

    let refill = |window: &mut Vec<Option<usize>>,
                  tt: &mut TransactionTable,
                  staged: &mut Vec<bool>,
                  completed: &[bool],
                  running: &[Option<usize>],
                  remaining: &HashMap<B256, u32>| {
        let running_contracts: Vec<B256> =
            running.iter().flatten().map(|&tx| contracts[tx]).collect();
        let mut eligible: Vec<usize> = (0..n)
            .filter(|&i| {
                !staged[i]
                    && graph
                        .parents(i)
                        .iter()
                        .all(|&p| completed[p as usize] || running.contains(&Some(p as usize)))
            })
            .collect();
        eligible.sort_by_key(|&i| {
            let redundant = running_contracts.contains(&contracts[i]);
            let v = remaining.get(&contracts[i]).copied().unwrap_or(0);
            (!redundant, std::cmp::Reverse(v), i)
        });
        let mut it = eligible.into_iter();
        for (slot, w) in window.iter_mut().enumerate() {
            if w.is_none() {
                if let Some(tx) = it.next() {
                    *w = Some(tx);
                    staged[tx] = true;
                    let v = remaining.get(&contracts[tx]).copied().unwrap_or(0);
                    tt.fill(slot, v, tx as u32);
                }
            }
        }
    };
    let update_rows = |table: &mut SchedulingTable,
                       window: &[Option<usize>],
                       running: &[Option<usize>],
                       pus: &[Pu]| {
        for (p, r) in running.iter().enumerate() {
            let (mut de, mut re) = (0u64, 0u64);
            match r {
                Some(tx) => {
                    for (slot, w) in window.iter().enumerate() {
                        if let Some(cand) = w {
                            if graph.parents(*cand).contains(&(*tx as u32)) {
                                de |= 1 << slot;
                            }
                            if contracts[*cand] == contracts[*tx] {
                                re |= 1 << slot;
                            }
                        }
                    }
                }
                None => {
                    if let Some(last) = pus[p].last_code {
                        for (slot, w) in window.iter().enumerate() {
                            if let Some(cand) = w {
                                if contracts[*cand] == last {
                                    re |= 1 << slot;
                                }
                            }
                        }
                    }
                }
            }
            table.set_row(p, de, re);
        }
    };

    while done < n {
        refill(
            &mut window,
            &mut tt,
            &mut staged,
            &completed,
            &running,
            &remaining,
        );
        update_rows(&mut table, &window, &running, &pus);
        let mut dispatched = false;
        let mut idle: Vec<usize> = (0..cfg.pu_count)
            .filter(|&p| running[p].is_none())
            .collect();
        idle.sort_by_key(|&p| (free_at[p], p));
        for p in idle {
            let mask = table.selectable_mask();
            let re = table.row(p).re;
            if let Some(slot) = tt.select(mask, re) {
                let tx = window[slot].expect("selected slot is occupied");
                assert!(tt.try_lock(slot));
                tt.clear(slot);
                window[slot] = None;
                let t0 = free_at[p] + cfg.lat.select_cycles;
                let timing = pus[p].execute(&jobs[tx], &mut buffer, cfg);
                res.start[tx] = t0;
                res.end[tx] = t0 + timing.cycles;
                res.pu_of[tx] = p;
                res.busy[p] += cfg.lat.select_cycles + timing.cycles;
                res.timing.accumulate(&timing);
                running[p] = Some(tx);
                free_at[p] = res.end[tx];
                *remaining.get_mut(&contracts[tx]).expect("counted") -= 1;
                refill(
                    &mut window,
                    &mut tt,
                    &mut staged,
                    &completed,
                    &running,
                    &remaining,
                );
                update_rows(&mut table, &window, &running, &pus);
                dispatched = true;
            }
        }
        let next = (0..cfg.pu_count)
            .filter(|&p| running[p].is_some())
            .min_by_key(|&p| (free_at[p], p));
        match next {
            Some(p) => {
                let tx = running[p].take().expect("running");
                completed[tx] = true;
                done += 1;
                for q in 0..cfg.pu_count {
                    if running[q].is_none() && free_at[q] < free_at[p] {
                        free_at[q] = free_at[p];
                    }
                }
            }
            None => assert!(dispatched || done == n, "reference deadlocked"),
        }
    }
    res.makespan = res.end.iter().copied().max().unwrap_or(0);
    res
}

/// The schedule invariants PAPER.md S6 promises, stated on the result.
fn check_properties(res: &ScheduleResult, jobs: &[TxJob], graph: &DepGraph, cfg: &MtpuConfig) {
    let n = jobs.len();
    // Each transaction ran exactly once: it has an interval on a real PU,
    // and the retired instructions add up to the block's.
    let instructions: u64 = jobs.iter().map(|j| j.instructions).sum();
    assert_eq!(
        res.timing.instructions, instructions,
        "a job ran twice or never"
    );
    for i in 0..n {
        assert!(res.pu_of[i] < cfg.pu_count, "tx {i} on PU {}", res.pu_of[i]);
        assert!(res.end[i] > res.start[i], "tx {i} has no duration");
    }
    // Dependencies: a child starts no earlier than each parent ended.
    for i in 0..n {
        for &p in graph.parents(i) {
            assert!(
                res.start[i] >= res.end[p as usize],
                "tx {i} started at {} before parent {p} ended at {}",
                res.start[i],
                res.end[p as usize]
            );
        }
    }
    // No overlap on one PU, and busy time is what ran there (each
    // dispatch also pays the selection cycles).
    for p in 0..cfg.pu_count {
        let mut on_p: Vec<usize> = (0..n).filter(|&i| res.pu_of[i] == p).collect();
        on_p.sort_by_key(|&i| res.start[i]);
        for w in on_p.windows(2) {
            assert!(
                res.start[w[1]] >= res.end[w[0]],
                "PU {p}: tx {} overlaps tx {}",
                w[1],
                w[0]
            );
        }
        let ran: u64 = on_p
            .iter()
            .map(|&i| res.end[i] - res.start[i] + cfg.lat.select_cycles)
            .sum();
        assert_eq!(res.busy[p], ran, "PU {p} busy time");
    }
    // Makespan bounds: the last end, at least the critical path (each
    // transaction weighted by its own duration), and at least the total
    // busy time spread over every PU.
    assert_eq!(res.makespan, res.end.iter().copied().max().unwrap_or(0));
    let mut path = vec![0u64; n];
    for i in 0..n {
        let before = graph
            .parents(i)
            .iter()
            .map(|&p| path[p as usize])
            .max()
            .unwrap_or(0);
        path[i] = before + res.end[i] - res.start[i];
    }
    let critical = path.iter().copied().max().unwrap_or(0);
    assert!(
        res.makespan >= critical,
        "makespan {} < critical path {critical}",
        res.makespan
    );
    let busy: u64 = res.busy.iter().sum();
    assert!(
        res.makespan * cfg.pu_count as u64 >= busy,
        "makespan {} x {} PUs < busy {busy}",
        res.makespan,
        cfg.pu_count
    );
}

fn check(jobs: &[TxJob], graph: &DepGraph, cfg: &MtpuConfig, what: &str) {
    let got = simulate_st(jobs, graph, cfg);
    let want = reference_st(jobs, graph, cfg);
    assert!(
        got == want,
        "{what}: pu_count {} slots {} redundancy {}: schedule differs from the reference\n got {got:?}\nwant {want:?}",
        cfg.pu_count,
        cfg.candidate_slots,
        cfg.redundancy_opt
    );
    check_properties(&got, jobs, graph, cfg);
}

/// A small contract pool: each contract is one fixed program, so its
/// transactions replay the same pcs (DB-cache lines) and touch
/// overlapping storage (State Buffer reuse).
const POOL: u64 = 4;

/// Opcodes a synthetic program draws from: simple, multi-cycle, memory,
/// storage and control ops, with PUSHes that fold into their consumer.
const OPS: [Opcode; 14] = [
    Opcode::Push1,
    Opcode::Push2,
    Opcode::Add,
    Opcode::Mul,
    Opcode::Eq,
    Opcode::Iszero,
    Opcode::Caller,
    Opcode::Dup1,
    Opcode::Swap1,
    Opcode::Pop,
    Opcode::Mstore,
    Opcode::Sload,
    Opcode::Sstore,
    Opcode::Jumpi,
];

/// A job of `steps` steps on contract `contract` (0 = a plain
/// transfer, which has no frame).
fn synthetic_job(contract: u64, steps: usize, rng: &mut SplitMix64, cfg: &MtpuConfig) -> TxJob {
    let mut trace = TxTrace {
        gas_used: 21_000 + steps as u64 * 10,
        success: true,
        ..Default::default()
    };
    if contract > 0 {
        let address = Address::from_low_u64(0xc0de + contract);
        trace.frames.push(FrameInfo {
            depth: 0,
            kind: CallKind::Call,
            code_address: address,
            storage_address: address,
            code_hash: B256::keccak(&contract.to_be_bytes()),
            code_len: 600 + 200 * contract as u32,
            input_len: 36,
            selector: None,
        });
        // The contract's program is a function of its id; a transaction
        // runs it from a random entry point.
        let mut program = SplitMix64(contract * 0x1000_0001);
        let mut pc = 0u32;
        let ops: Vec<(u32, Opcode)> = (0..256)
            .map(|_| {
                let op = OPS[program.range(0, OPS.len() - 1)];
                let at = pc;
                pc += 1 + op.immediate_len() as u32;
                (at, op)
            })
            .collect();
        let entry = rng.range(0, ops.len() - 1);
        for k in 0..steps {
            let (pc, op) = ops[(entry + k) % ops.len()];
            let step = trace.steps.len() as u32;
            trace.steps.push(TraceStep {
                frame: 0,
                pc,
                op: op as u8,
            });
            if matches!(op, Opcode::Sload | Opcode::Sstore) {
                trace.storage.push(StorageAccess {
                    step,
                    address,
                    key: U256::from(rng.next() % 12),
                    write: op == Opcode::Sstore,
                });
            }
        }
    }
    TxJob::build(&trace, cfg, &StreamTransforms::none())
}

/// A random DAG over `n` transactions from SplitMix64 read/write sets on
/// a small key space, with a few shared senders adding nonce edges.
fn random_dag(n: usize, rng: &mut SplitMix64) -> DepGraph {
    let keys = rng.range(2, 3 * n.max(1));
    let txs: Vec<Transaction> = (0..n)
        .map(|i| {
            let from = Address::from_low_u64(1 + rng.next() % (2 * n as u64 + 1));
            Transaction::transfer(from, Address::from_low_u64(9), U256::ONE, i as u64)
        })
        .collect();
    let mut draw = |most: usize| {
        let count = rng.range(0, most);
        let mut v: Vec<SlotKey> = (0..count)
            .map(|_| {
                SlotKey::Storage(
                    Address::from_low_u64(7),
                    U256::from(rng.next() % keys as u64),
                )
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let sets: Vec<RwSet> = (0..n)
        .map(|_| RwSet {
            reads: draw(3),
            writes: draw(2),
        })
        .collect();
    DepGraph::from_rw_sets(&txs, &sets)
}

fn cfg(pu_count: usize, candidate_slots: usize, redundancy_opt: bool) -> MtpuConfig {
    MtpuConfig {
        pu_count,
        candidate_slots,
        redundancy_opt,
        ..MtpuConfig::default()
    }
}

/// One random block: `n` synthetic jobs and a random DAG over them.
fn random_block(rng: &mut SplitMix64, n: usize, cfg: &MtpuConfig) -> (Vec<TxJob>, DepGraph) {
    let jobs = (0..n)
        .map(|_| {
            let contract = rng.next() % (POOL + 1);
            let steps = rng.range(1, 160);
            synthetic_job(contract, steps, rng, cfg)
        })
        .collect();
    (jobs, random_dag(n, rng))
}

#[test]
fn random_dags_match_the_reference_schedule() {
    let mut rng = SplitMix64(0x5C4E_D01E);
    for round in 0..60 {
        let c = cfg(rng.range(1, 8), rng.range(1, 64), rng.chance(50));
        let n = rng.range(0, 40);
        let (jobs, graph) = random_block(&mut rng, n, &c);
        check(&jobs, &graph, &c, &format!("random DAG {round} of {n} txs"));
    }
}

#[test]
fn generator_blocks_match_the_reference_schedule() {
    let mut g = Generator::new(0x16);
    let warm = g.prepared_block(&BlockConfig::default());
    let mut table = ContractTable::new();
    warm.learn_hotspots(&mut table, &warm.state_before);
    let mut rng = SplitMix64(0x6E6);
    for ratio in [0.0, 0.5, 1.0] {
        let p = g.prepared_block(&BlockConfig {
            tx_count: 48,
            dependent_ratio: ratio,
            erc20_ratio: None,
            sct_ratio: 0.9,
            chain_bias: 0.8,
            focus: None,
        });
        for _ in 0..3 {
            let c = MtpuConfig {
                hotspot_opt: rng.chance(50),
                ..cfg(rng.range(1, 8), rng.range(1, 64), rng.chance(50))
            };
            let jobs = p.jobs(&c, Some(&table));
            check(
                &jobs,
                &p.graph,
                &c,
                &format!("generator block at ratio {ratio}"),
            );
        }
    }
}

/// The deep sweep: every `pu_count` in 1–8 × `candidate_slots` in
/// {1, 4, 16, 64} × redundancy on and off, on more and larger DAGs.
#[test]
#[ignore = "deep sweep; run in release with --ignored"]
fn deep_sweep_matches_the_reference_schedule() {
    let mut rng = SplitMix64(0xDEE9);
    for round in 0..40 {
        let n = rng.range(1, 96);
        let seed = rng.next();
        for pu_count in 1..=8 {
            for slots in [1, 4, 16, 64] {
                for redundancy in [false, true] {
                    let c = cfg(pu_count, slots, redundancy);
                    // Same block for every configuration of this round.
                    let (jobs, graph) = random_block(&mut SplitMix64(seed), n, &c);
                    check(&jobs, &graph, &c, &format!("deep round {round} of {n} txs"));
                }
            }
        }
    }
}
