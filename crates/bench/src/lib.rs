//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the index).

pub mod experiments;
pub mod harness;
