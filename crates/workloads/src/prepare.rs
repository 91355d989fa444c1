//! Block preparation: the consensus-stage work of the three-stage model.
//!
//! The elected node executes the block (we record traces), discovers the
//! dependency DAG and ships both with the block; the executing nodes then
//! drive the accelerator from exactly this data.

use mtpu::hotspot::ContractTable;
use mtpu::pu::TxJob;
use mtpu::sched::DepGraph;
use mtpu::stream::StreamTransforms;
use mtpu::MtpuConfig;
use mtpu_evm::state::State;
use mtpu_evm::trace::TxTrace;
use mtpu_evm::trace_transaction;
use mtpu_evm::tx::{Block, Receipt};

/// A block plus everything the execution stage needs.
#[derive(Debug, Clone)]
pub struct PreparedBlock {
    /// The block.
    pub block: Block,
    /// World state *before* the block.
    pub state_before: State,
    /// World state *after* sequential execution (the consensus result all
    /// schedules must reproduce).
    pub state_after: State,
    /// Receipts of the sequential execution.
    pub receipts: Vec<Receipt>,
    /// Recorded execution traces.
    pub traces: Vec<TxTrace>,
    /// The dependency DAG (serialized into the block per the paper).
    pub graph: DepGraph,
}

/// Executes `block` sequentially from `state`, recording traces and
/// building the DAG.
///
/// # Panics
///
/// Panics if any transaction is invalid (the generator only produces
/// valid ones).
pub fn prepare_block(state: &State, block: Block) -> PreparedBlock {
    let state_before = state.clone();
    let mut st = state.clone();
    let mut receipts = Vec::with_capacity(block.transactions.len());
    let mut traces = Vec::with_capacity(block.transactions.len());
    for tx in &block.transactions {
        let (r, t) =
            trace_transaction(&mut st, &block.header, tx).expect("generated txs are valid");
        receipts.push(r);
        traces.push(t);
    }
    let graph = DepGraph::from_conflicts(&block.transactions, &traces);
    PreparedBlock {
        block,
        state_before,
        state_after: st,
        receipts,
        traces,
        graph,
    }
}

impl PreparedBlock {
    /// Realized fraction of dependent transactions.
    pub fn dependent_ratio(&self) -> f64 {
        self.graph.dependent_ratio()
    }

    /// Fraction of successfully executed transactions.
    pub fn success_ratio(&self) -> f64 {
        if self.receipts.is_empty() {
            return 1.0;
        }
        self.receipts.iter().filter(|r| r.success).count() as f64 / self.receipts.len() as f64
    }

    /// Share of this block's transactions `table` treats as hotspots (0
    /// for an empty block).
    pub fn hotspot_coverage(&self, table: &ContractTable) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        let hits = self.traces.iter().filter(|t| table.is_hotspot(t)).count();
        hits as f64 / self.traces.len() as f64
    }

    /// Builds timing jobs for every transaction under `cfg`, applying
    /// hotspot transforms from `table` when provided — but only to
    /// transactions heard during dissemination (`cfg.preknown_pct`,
    /// paper §3.4.2): pre-execution and prefetching need the transaction
    /// before the block arrives.
    pub fn jobs(&self, cfg: &MtpuConfig, table: Option<&ContractTable>) -> Vec<TxJob> {
        self.traces
            .iter()
            .enumerate()
            .map(|(i, trace)| match table {
                Some(t) if cfg.hotspot_opt && mtpu::config::is_preknown(cfg, i) => {
                    let (tr, loaded) = t.transforms_for(trace);
                    TxJob::build_with_override(trace, cfg, &tr, loaded)
                }
                _ => TxJob::build(trace, cfg, &StreamTransforms::none()),
            })
            .collect()
    }

    /// Teaches `table` every (contract, entry) of this block — the block
    /// interval's offline optimization pass.
    pub fn learn_hotspots(&self, table: &mut ContractTable, state: &State) {
        for trace in &self.traces {
            table.record_invocation(trace);
        }
        for trace in &self.traces {
            if let Some(top) = trace.top_frame() {
                let code = state.code(top.code_address).to_vec();
                if !code.is_empty() {
                    table.learn(trace, &code);
                }
            }
        }
    }
}
