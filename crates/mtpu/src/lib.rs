//! The MTPU: the paper's contribution — multi-transaction processing unit
//! timing model, spatial-temporal scheduler and hotspot optimizer.

pub mod area;
pub mod config;
pub mod dbcache;
pub mod funit;
pub mod hotspot;
pub mod obs;
pub mod pu;
pub mod sched;
pub mod stream;

pub use config::{DbCacheConfig, LatencyModel, MtpuConfig};
pub use dbcache::DbCacheStats;
pub use hotspot::ContractTable;
pub use pu::{Pu, PuStats, StateBuffer, StateBufferStats, TxJob, TxTiming};
pub use sched::{simulate_sequential, simulate_st, simulate_sync, DepGraph, ScheduleResult};
