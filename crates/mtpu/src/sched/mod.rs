//! The spatial-temporal scheduling algorithm (paper §3.2) and its
//! comparison baselines.

mod depgraph;
mod rwset;
mod sim;
mod tables;

pub use depgraph::DepGraph;
pub use rwset::{speculative_rw_set, static_rw_set, tx_rw_set, RwSet, SlotKey};
pub use sim::{simulate_sequential, simulate_st, simulate_sync, ScheduleResult};
pub use tables::{PuRow, SchedulingTable, TransactionTable, MAX_CANDIDATES};
