//! Discrete-event simulation of the spatial-temporal scheduler (Fig. 6)
//! and the two comparison baselines: sequential execution and synchronous
//! (barrier-per-round) parallel execution.
//!
//! Scheduling and execution are decoupled: the CPU-side window refills and
//! table updates are off the critical path (paper §3.2.3), so the model
//! charges only the PU-side `select_cycles` per dispatch.

use crate::config::MtpuConfig;
use crate::pu::{Pu, StateBuffer, TxJob, TxTiming};
use crate::sched::depgraph::DepGraph;
use crate::sched::tables::{SchedulingTable, TransactionTable};
use mtpu_primitives::map::FastMap;
use mtpu_primitives::B256;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of scheduling one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// Total cycles until the last transaction completed.
    pub makespan: u64,
    /// Per-transaction start cycle.
    pub start: Vec<u64>,
    /// Per-transaction end cycle.
    pub end: Vec<u64>,
    /// PU that executed each transaction.
    pub pu_of: Vec<usize>,
    /// Per-PU busy cycles.
    pub busy: Vec<u64>,
    /// Aggregate execution statistics.
    pub timing: TxTiming,
}

impl ScheduleResult {
    /// Resource utilization: busy cycles over `makespan × PUs`
    /// (paper Fig. 15).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.busy.is_empty() {
            return 0.0;
        }
        let total: u64 = self.busy.iter().sum();
        total as f64 / (self.makespan as f64 * self.busy.len() as f64)
    }

    /// Speedup of this schedule relative to `baseline`.
    pub fn speedup_over(&self, baseline: &ScheduleResult) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        baseline.makespan as f64 / self.makespan as f64
    }
}

/// Interns each job's redundancy identity — the top-frame code hash —
/// to a dense contract id, and counts each id's invocations: V, the
/// composite DAG's node value.
fn intern_contracts(jobs: &[TxJob]) -> (Vec<usize>, Vec<u32>) {
    let mut ids: FastMap<B256, usize> = FastMap::default();
    let mut remaining: Vec<u32> = Vec::new();
    let contract = jobs
        .iter()
        .map(|job| {
            let id = *ids.entry(job.top_code()).or_insert_with(|| {
                remaining.push(0);
                remaining.len() - 1
            });
            remaining[id] += 1;
            id
        })
        .collect();
    (contract, remaining)
}

/// Each transaction's count of DAG parents, for schedulers that release
/// a transaction when the count falls to zero.
fn parent_counts(graph: &DepGraph) -> Vec<usize> {
    (0..graph.len()).map(|i| graph.parents(i).len()).collect()
}

/// Sequentially executes the block on a single PU in block order
/// (the paper's reference baseline).
pub fn simulate_sequential(jobs: &[TxJob], cfg: &MtpuConfig) -> ScheduleResult {
    let mut pu = Pu::new(0, cfg);
    let mut buffer = StateBuffer::default();
    let n = jobs.len();
    let mut res = ScheduleResult {
        makespan: 0,
        start: vec![0; n],
        end: vec![0; n],
        pu_of: vec![0; n],
        busy: vec![0],
        timing: TxTiming::default(),
    };
    let mut t = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let timing = pu.execute(job, &mut buffer, cfg);
        res.start[i] = t;
        t += timing.cycles;
        res.end[i] = t;
        res.busy[0] += timing.cycles;
        res.timing.accumulate(&timing);
    }
    res.makespan = t;
    res
}

/// Synchronous execution: per round, up to `pu_count` ready transactions
/// start together and a barrier waits for the slowest (the paper's
/// "synchronous execution of transactions" comparison).
pub fn simulate_sync(jobs: &[TxJob], graph: &DepGraph, cfg: &MtpuConfig) -> ScheduleResult {
    let n = jobs.len();
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
    // Released once every parent has completed, lowest block index
    // first.
    let mut waiting = parent_counts(graph);
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| waiting[i] == 0).map(Reverse).collect();
    let mut done = 0usize;
    let mut t = 0u64;
    while done < n {
        let round: Vec<usize> = (0..cfg.pu_count)
            .map_while(|_| ready.pop().map(|Reverse(tx)| tx))
            .collect();
        assert!(!round.is_empty(), "acyclic DAG always has ready work");
        t += cfg.lat.sync_round_cycles;
        let mut round_end = t;
        for (k, &tx) in round.iter().enumerate() {
            let timing = pus[k].execute(&jobs[tx], &mut buffer, cfg);
            res.start[tx] = t;
            res.end[tx] = t + timing.cycles;
            res.pu_of[tx] = k;
            res.busy[k] += timing.cycles;
            res.timing.accumulate(&timing);
            round_end = round_end.max(res.end[tx]);
        }
        for &tx in &round {
            done += 1;
            for &c in graph.children(tx) {
                waiting[c as usize] -= 1;
                if waiting[c as usize] == 0 {
                    ready.push(Reverse(c as usize));
                }
            }
        }
        t = round_end;
    }
    res.makespan = t;
    res
}

/// The spatial-temporal schedule: asynchronous PUs select from the
/// candidate window via the Scheduling/Transaction tables, with
/// redundancy affinity and V-priority.
pub fn simulate_st(jobs: &[TxJob], graph: &DepGraph, cfg: &MtpuConfig) -> ScheduleResult {
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

    let (contract, mut remaining) = intern_contracts(jobs);
    // A transaction enters `ready` (eligible for the window) once every
    // parent has been dispatched, i.e. is running or completed (paper
    // §3.2.1), and leaves it when staged.
    let mut waiting = parent_counts(graph);
    let mut ready: Vec<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();
    let mut running: Vec<Option<usize>> = vec![None; cfg.pu_count];
    // Contract of each PU's last transaction while it still holds that
    // context (`Pu::last_code`).
    let mut held: Vec<Option<usize>> = vec![None; cfg.pu_count];
    let mut free_at = vec![0u64; cfg.pu_count];
    let mut window: Vec<Option<usize>> = vec![None; m];
    let mut table = SchedulingTable::new(cfg.pu_count);
    let mut tt = TransactionTable::new(m);
    let mut idle: Vec<usize> = Vec::with_capacity(cfg.pu_count);
    let mut done = 0usize;

    // CPU-side: stage the best eligible transactions into empty window
    // slots — redundant with a running transaction first, then high V,
    // then block order — the best into the lowest empty slot.
    let refill = |window: &mut [Option<usize>],
                  tt: &mut TransactionTable,
                  ready: &mut Vec<usize>,
                  running: &[Option<usize>],
                  remaining: &[u32]| {
        let empty = window.iter().filter(|w| w.is_none()).count();
        let k = empty.min(ready.len());
        if k == 0 {
            return;
        }
        // Keys are unique (block index last), so the top k and their
        // order are those of a full sort.
        let key = |&i: &usize| {
            let redundant = running
                .iter()
                .flatten()
                .any(|&tx| contract[tx] == contract[i]);
            (!redundant, Reverse(remaining[contract[i]]), i)
        };
        if k < ready.len() {
            ready.select_nth_unstable_by_key(k - 1, key);
        }
        ready[..k].sort_unstable_by_key(key);
        let mut chosen = ready.drain(..k);
        for (slot, w) in window.iter_mut().enumerate() {
            if w.is_none() {
                if let Some(tx) = chosen.next() {
                    *w = Some(tx);
                    tt.fill(slot, remaining[contract[tx]], tx as u32);
                }
            }
        }
    };

    // Recompute De/Re rows against the current window (CPU update ③/⑤).
    // An idle PU keeps Re affinity with the contract whose context it
    // still holds.
    let update_rows = |table: &mut SchedulingTable,
                       window: &[Option<usize>],
                       running: &[Option<usize>],
                       held: &[Option<usize>]| {
        for (p, r) in running.iter().enumerate() {
            let affinity = r.map_or(held[p], |tx| Some(contract[tx]));
            let mut de = 0u64;
            let mut re = 0u64;
            for (slot, w) in window.iter().enumerate() {
                if let Some(cand) = *w {
                    if r.is_some_and(|tx| graph.parents(cand).contains(&(tx as u32))) {
                        de |= 1 << slot;
                    }
                    if affinity == Some(contract[cand]) {
                        re |= 1 << slot;
                    }
                }
            }
            table.set_row(p, de, re);
        }
    };

    while done < n {
        refill(&mut window, &mut tt, &mut ready, &running, &remaining);
        update_rows(&mut table, &window, &running, &held);

        // Dispatch to every idle PU, earliest-free first.
        let mut dispatched = false;
        idle.clear();
        idle.extend((0..cfg.pu_count).filter(|&p| running[p].is_none()));
        idle.sort_by_key(|&p| (free_at[p], p));
        for &p in &idle {
            let mask = table.selectable_mask();
            let re = table.row(p).re;
            if let Some(slot) = tt.select(mask, re) {
                let tx = window[slot].expect("selected slot is occupied");
                assert!(tt.try_lock(slot), "selected slot lockable");
                // PU reads the transaction; CPU clears and refills.
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
                held[p] = pus[p].last_code.map(|_| contract[tx]);
                free_at[p] = res.end[tx];
                remaining[contract[tx]] -= 1;
                for &c in graph.children(tx) {
                    waiting[c as usize] -= 1;
                    if waiting[c as usize] == 0 {
                        ready.push(c as usize);
                    }
                }
                // Order matters (the paper's dirty-read hazard, §3.2.2):
                // newly staged candidates must have valid De bits before
                // any other PU can see them, so refill precedes the row
                // update.
                refill(&mut window, &mut tt, &mut ready, &running, &remaining);
                update_rows(&mut table, &window, &running, &held);
                dispatched = true;
            } else if mtpu_telemetry::enabled() {
                // Classify why the idle PU could not dispatch.
                let m = crate::obs::metrics();
                if window.iter().all(|w| w.is_none()) {
                    m.stall_window_empty.inc();
                } else {
                    m.stall_deps.inc();
                }
            }
        }

        // Advance time: complete the earliest running transaction.
        let next = (0..cfg.pu_count)
            .filter(|&p| running[p].is_some())
            .min_by_key(|&p| (free_at[p], p));
        match next {
            Some(p) => {
                running[p] = None;
                done += 1;
                // Idle PUs that were starved wait until this completion.
                for q in 0..cfg.pu_count {
                    if running[q].is_none() && free_at[q] < free_at[p] {
                        free_at[q] = free_at[p];
                        if mtpu_telemetry::enabled() {
                            crate::obs::metrics().stall_starved.inc();
                        }
                    }
                }
            }
            None => {
                assert!(
                    dispatched || done == n,
                    "scheduler deadlock: no running work and nothing dispatchable"
                );
            }
        }
    }
    res.makespan = res.end.iter().copied().max().unwrap_or(0);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::opcode::Opcode;
    use mtpu_evm::trace::{CallKind, FrameInfo, TraceStep, TxTrace};
    use mtpu_primitives::Address;

    /// A synthetic job with `len` simple instructions on `contract`.
    fn job(contract: u64, len: usize, cfg: &MtpuConfig) -> TxJob {
        let code_hash = B256::keccak(&contract.to_be_bytes());
        let trace = TxTrace {
            frames: vec![FrameInfo {
                depth: 0,
                kind: CallKind::Call,
                code_address: Address::from_low_u64(contract),
                storage_address: Address::from_low_u64(contract),
                code_hash,
                code_len: 1000,
                input_len: 36,
                selector: None,
            }],
            steps: (0..len)
                .map(|i| TraceStep {
                    frame: 0,
                    pc: (i * 2) as u32,
                    op: if i % 2 == 0 {
                        Opcode::Push1
                    } else {
                        Opcode::Pop
                    } as u8,
                })
                .collect(),
            storage: Vec::new(),
            gas_used: 30_000,
            success: true,
        };
        TxJob::build(&trace, cfg, &crate::stream::StreamTransforms::none())
    }

    fn four_pu_cfg() -> MtpuConfig {
        MtpuConfig {
            pu_count: 4,
            enable_db_cache: false,
            redundancy_opt: false,
            ..MtpuConfig::default()
        }
    }

    #[test]
    fn independent_txs_scale_with_pus() {
        let cfg = four_pu_cfg();
        let jobs: Vec<TxJob> = (0..16).map(|i| job(i, 400, &cfg)).collect();
        let graph = DepGraph::new(jobs.len());
        let seq = simulate_sequential(
            &jobs,
            &MtpuConfig {
                pu_count: 1,
                ..cfg.clone()
            },
        );
        let st = simulate_st(&jobs, &graph, &cfg);
        let speedup = st.speedup_over(&seq);
        assert!(speedup > 3.0, "4 PUs on independent work: {speedup}");
        assert!(st.utilization() > 0.8, "utilization {}", st.utilization());
        assert!(graph.schedule_respects_dag(&st.start, &st.end));
    }

    #[test]
    fn chain_cannot_parallelize() {
        let cfg = four_pu_cfg();
        let jobs: Vec<TxJob> = (0..8).map(|i| job(i, 300, &cfg)).collect();
        let mut graph = DepGraph::new(jobs.len());
        for i in 1..jobs.len() {
            graph.add_edge(i - 1, i);
        }
        let seq = simulate_sequential(
            &jobs,
            &MtpuConfig {
                pu_count: 1,
                ..cfg.clone()
            },
        );
        let st = simulate_st(&jobs, &graph, &cfg);
        assert!(graph.schedule_respects_dag(&st.start, &st.end));
        let speedup = st.speedup_over(&seq);
        assert!(speedup <= 1.05, "a chain is the critical path: {speedup}");
    }

    #[test]
    fn st_beats_sync_on_skewed_durations() {
        // One long-running transaction per round stalls the synchronous
        // barrier; ST keeps other PUs busy.
        let cfg = four_pu_cfg();
        let mut jobs = Vec::new();
        for i in 0..24 {
            jobs.push(job(i, if i % 4 == 0 { 2000 } else { 200 }, &cfg));
        }
        let graph = DepGraph::new(jobs.len());
        let sync = simulate_sync(&jobs, &graph, &cfg);
        let st = simulate_st(&jobs, &graph, &cfg);
        assert!(graph.schedule_respects_dag(&sync.start, &sync.end));
        assert!(
            st.makespan < sync.makespan,
            "st {} vs sync {}",
            st.makespan,
            sync.makespan
        );
    }

    #[test]
    fn redundancy_affinity_groups_same_contract() {
        // 2 contracts, redundancy on: transactions of the same contract
        // should gravitate to the same PU (context reuse).
        let cfg = MtpuConfig {
            pu_count: 2,
            redundancy_opt: true,
            ..MtpuConfig::default()
        };
        let jobs: Vec<TxJob> = (0..12).map(|i| job(i % 2, 300, &cfg)).collect();
        let graph = DepGraph::new(jobs.len());
        let st = simulate_st(&jobs, &graph, &cfg);
        // Count affinity violations: consecutive txs of a contract on
        // different PUs are allowed, but the bulk should stick.
        let mut per_contract_pus: FastMap<u64, Vec<usize>> = FastMap::default();
        for (i, &pu) in st.pu_of.iter().enumerate() {
            per_contract_pus.entry(i as u64 % 2).or_default().push(pu);
        }
        for (_, pus) in per_contract_pus {
            let first = pus[0];
            let same = pus.iter().filter(|&&p| p == first).count();
            assert!(
                same * 10 >= pus.len() * 8,
                "redundant txs mostly share a PU: {pus:?}"
            );
        }
    }

    #[test]
    fn all_txs_complete_exactly_once() {
        let cfg = four_pu_cfg();
        let jobs: Vec<TxJob> = (0..20)
            .map(|i| job(i % 3, 100 + i as usize * 10, &cfg))
            .collect();
        let mut graph = DepGraph::new(jobs.len());
        graph.add_edge(0, 5);
        graph.add_edge(5, 10);
        graph.add_edge(2, 10);
        for sim in [
            simulate_st(&jobs, &graph, &cfg),
            simulate_sync(&jobs, &graph, &cfg),
        ] {
            assert!(graph.schedule_respects_dag(&sim.start, &sim.end));
            for i in 0..jobs.len() {
                assert!(sim.end[i] > sim.start[i], "tx {i} has a duration");
            }
            assert_eq!(sim.makespan, *sim.end.iter().max().unwrap());
        }
    }

    #[test]
    fn empty_block() {
        let cfg = four_pu_cfg();
        let graph = DepGraph::new(0);
        let st = simulate_st(&[], &graph, &cfg);
        assert_eq!(st.makespan, 0);
    }
}
