//! One function per table/figure of the paper's evaluation. Each returns
//! a formatted report comparing measured numbers with the published ones.

pub mod ablation;
pub mod compare;
pub mod drift;
pub mod ilp;
pub mod parexec;
pub mod sched;
pub mod stat;
