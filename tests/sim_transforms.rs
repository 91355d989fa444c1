//! Hotspot stream transforms checked against a plain re-statement: for
//! every trace of several generator blocks, with a learned Contract
//! Table, `ContractTable::transforms_for` followed by
//! `TxJob::build_with_override` must give the same micro-op stream,
//! `StreamStats` and loaded-bytes override as the hash-set version of
//! both below (`reference_transforms`, `reference_stream`).

use mtpu_repro::evm::trace::TxTrace;
use mtpu_repro::mtpu::hotspot::{ContractTable, PathAnalysis};
use mtpu_repro::mtpu::pu::TxJob;
use mtpu_repro::mtpu::stream::{is_foldable_target, BitSet, MicroOp, StreamStats};
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::collections::HashSet;

/// Step sets of one transaction, as hash sets.
#[derive(Default)]
struct Transforms {
    skip: HashSet<u32>,
    eliminated: HashSet<u32>,
    const_operand: HashSet<u32>,
    prefetched: HashSet<u32>,
}

fn analysis_of<'a>(table: &'a ContractTable, trace: &TxTrace) -> Option<&'a PathAnalysis> {
    let top = trace.top_frame()?;
    table.analysis(&(top.code_address, top.selector?))
}

/// Maps the analysis' pc sets onto this trace's steps.
fn reference_transforms(table: &ContractTable, trace: &TxTrace) -> (Transforms, Option<u64>) {
    let mut tr = Transforms::default();
    let Some(a) = analysis_of(table, trace) else {
        return (tr, None);
    };
    let pcs = |set: &BitSet| set.iter().collect::<HashSet<u32>>();
    let (preexec, eliminated, const_operand, prefetch) = (
        pcs(&a.preexec_pcs),
        pcs(&a.eliminated_push_pcs),
        pcs(&a.const_operand_pcs),
        pcs(&a.prefetch_pcs),
    );
    for (i, s) in trace.steps.iter().enumerate() {
        if s.frame != 0 || !preexec.contains(&s.pc) {
            break;
        }
        tr.skip.insert(i as u32);
    }
    for (i, s) in trace.steps.iter().enumerate() {
        let i = i as u32;
        if s.frame != 0 || tr.skip.contains(&i) {
            continue;
        }
        if eliminated.contains(&s.pc) {
            tr.eliminated.insert(i);
        }
        if const_operand.contains(&s.pc) {
            tr.const_operand.insert(i);
        }
        if prefetch.contains(&s.pc) {
            tr.prefetched.insert(i);
        }
    }
    (tr, Some(a.loaded_bytes))
}

/// Filters and annotates every step, then folds PUSH + target pairs in
/// a second pass.
fn reference_stream(
    trace: &TxTrace,
    folding: bool,
    tr: &Transforms,
) -> (Vec<MicroOp>, StreamStats) {
    let mut stats = StreamStats::default();
    let mut pending = Vec::new();
    for (i, s) in trace.steps.iter().enumerate() {
        let i = i as u32;
        if tr.skip.contains(&i) {
            stats.skipped_preexec += 1;
            continue;
        }
        if tr.eliminated.contains(&i) {
            stats.eliminated += 1;
            continue;
        }
        pending.push(MicroOp {
            step: i,
            frame: s.frame,
            pc: s.pc,
            op: s.opcode(),
            const_operand: tr.const_operand.contains(&i),
            insn_count: 1,
            prefetched: tr.prefetched.contains(&i),
        });
    }
    if !folding {
        return (pending, stats);
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        let cur: MicroOp = pending[i];
        if cur.op.is_push() && !cur.const_operand && i + 1 < pending.len() {
            let next = pending[i + 1];
            let contiguous = next.frame == cur.frame
                && next.pc as usize == cur.pc as usize + 1 + cur.op.immediate_len();
            if contiguous && is_foldable_target(next.op) && !next.const_operand {
                out.push(MicroOp {
                    step: next.step,
                    frame: cur.frame,
                    pc: cur.pc,
                    op: next.op,
                    const_operand: true,
                    insn_count: 2,
                    prefetched: next.prefetched,
                });
                stats.folded += 1;
                i += 2;
                continue;
            }
        }
        out.push(cur);
        i += 1;
    }
    (out, stats)
}

#[test]
fn hotspot_jobs_match_the_hash_set_reference() {
    let (mut hotspots, mut steps) = (0, 0);
    for seed in [3u64, 0x7A, 0x5EED] {
        let mut g = Generator::new(seed);
        let warm = g.prepared_block(&BlockConfig {
            sct_ratio: 1.0,
            ..BlockConfig::default()
        });
        let mut table = ContractTable::new();
        warm.learn_hotspots(&mut table, &warm.state_before);
        for ratio in [0.0, 0.6] {
            let p = g.prepared_block(&BlockConfig {
                tx_count: 64,
                dependent_ratio: ratio,
                erc20_ratio: None,
                sct_ratio: 0.95,
                chain_bias: 0.8,
                focus: None,
            });
            for trace in &p.traces {
                let (want_tr, want_loaded) = reference_transforms(&table, trace);
                let (tr, loaded) = table.transforms_for(trace);
                let set = |s: &BitSet| s.iter().collect::<HashSet<_>>();
                assert_eq!(set(&tr.skip_steps), want_tr.skip);
                assert_eq!(set(&tr.eliminated_pushes), want_tr.eliminated);
                assert_eq!(set(&tr.const_operand_steps), want_tr.const_operand);
                assert_eq!(set(&tr.prefetched_steps), want_tr.prefetched);
                for folding in [true, false] {
                    let cfg = MtpuConfig {
                        enable_folding: folding,
                        hotspot_opt: true,
                        ..MtpuConfig::default()
                    };
                    let job = TxJob::build_with_override(trace, &cfg, &tr, loaded);
                    let (stream, stats) = reference_stream(trace, folding, &want_tr);
                    assert_eq!(job.stream, stream, "seed {seed} ratio {ratio}");
                    assert_eq!(job.stream_stats, stats, "seed {seed} ratio {ratio}");
                    assert_eq!(job.loaded_bytes_override, want_loaded);
                }
                hotspots += want_loaded.is_some() as usize;
                steps += want_tr.skip.len() + want_tr.eliminated.len() + want_tr.prefetched.len();
            }
        }
    }
    // The blocks exercise the transforms, not only the no-op path.
    assert!(
        hotspots > 100 && steps > 1000,
        "{hotspots} hotspot txs, {steps} steps"
    );
}
