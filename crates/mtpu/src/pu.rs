//! The processing unit: replays a transaction's micro-op stream through
//! the six-stage pipeline model with the DB cache, the three-level memory
//! hierarchy, and the context-load model.

use crate::config::{MtpuConfig, CONTRACT_STACK_SLOTS, STATE_BUFFER_SLOTS};
use crate::dbcache::{DbCache, DbCacheStats, Line, LineBuilder, LineKey};
use crate::funit::{lat_class, LatClass};
use crate::stream::{build_stream, MicroOp, StreamStats, StreamTransforms};
use mtpu_evm::opcode::Opcode;
use mtpu_evm::trace::{FrameInfo, StorageAccess, TxTrace};
use mtpu_primitives::map::FastSet;
use mtpu_primitives::{Address, B256, U256};
use std::collections::VecDeque;

/// Fixed transaction/block attribute bytes loaded with every frame
/// context (Table 4's fixed-length fields).
pub const FIXED_CONTEXT_BYTES: u64 = 128;

/// A transaction prepared for timing simulation: decoded micro-op stream
/// plus the metadata the memory models need.
#[derive(Debug, Clone)]
pub struct TxJob {
    /// The micro-op stream (after folding / hotspot transforms).
    pub stream: Vec<MicroOp>,
    /// Stream-build statistics.
    pub stream_stats: StreamStats,
    /// Frame metadata from the trace.
    pub frames: Vec<FrameInfo>,
    /// Storage operand of each SLOAD/SSTORE step, in step order (as the
    /// trace recorded them).
    pub storage: Vec<StorageAccess>,
    /// Original executed instruction count (before folding/elimination).
    pub instructions: u64,
    /// Gas consumed (receipt value; deducted per line via the G field).
    pub gas_used: u64,
    /// Hotspot chunked-loading override: bytes of top-frame code actually
    /// loaded (paper §3.4.2), `None` when the full code loads.
    pub loaded_bytes_override: Option<u64>,
}

impl TxJob {
    /// Builds a job from a recorded trace under `cfg`, with optional
    /// hotspot transforms.
    pub fn build(trace: &TxTrace, cfg: &MtpuConfig, transforms: &StreamTransforms) -> Self {
        Self::build_with_override(trace, cfg, transforms, None)
    }

    /// [`TxJob::build`] plus a chunked-loading override for the top frame.
    pub fn build_with_override(
        trace: &TxTrace,
        cfg: &MtpuConfig,
        transforms: &StreamTransforms,
        loaded_bytes_override: Option<u64>,
    ) -> Self {
        let (stream, stream_stats) = build_stream(trace, cfg.enable_folding, transforms);
        debug_assert!(
            trace.storage.windows(2).all(|w| w[0].step <= w[1].step),
            "storage accesses are recorded in step order"
        );
        TxJob {
            stream,
            stream_stats,
            frames: trace.frames.clone(),
            storage: trace.storage.clone(),
            instructions: trace.steps.len() as u64,
            gas_used: trace.gas_used,
            loaded_bytes_override,
        }
    }

    /// Code identity of the top-level frame (zero hash for plain value
    /// transfers).
    pub fn top_code(&self) -> B256 {
        self.frames
            .first()
            .map(|f| f.code_hash)
            .unwrap_or(B256::ZERO)
    }

    /// `true` for a plain value transfer (no contract execution).
    pub fn is_plain_transfer(&self) -> bool {
        self.stream.is_empty()
    }

    /// The storage slot step `step` accesses (the last one recorded for
    /// it).
    fn storage_at(&self, step: u32) -> Option<(Address, U256)> {
        let end = self.storage.partition_point(|a| a.step <= step);
        self.storage[..end]
            .last()
            .filter(|a| a.step == step)
            .map(|a| (a.address, a.key))
    }
}

/// Cumulative State-Buffer statistics (slot-reuse accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateBufferStats {
    /// Probes that found the slot resident (reuse).
    pub hits: u64,
    /// Probes that missed (slot loaded from state).
    pub misses: u64,
    /// Slots inserted (probe misses plus direct inserts).
    pub inserts: u64,
    /// Slots displaced by FIFO replacement.
    pub evictions: u64,
    /// Slots currently resident.
    pub resident: usize,
}

impl StateBufferStats {
    /// Reuse ratio in `[0, 1]` (0 when nothing was probed).
    pub fn hit_ratio(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// The shared State Buffer (execution-environment buffer): an
/// approximately-LRU set of recently touched (address, key) state slots.
#[derive(Debug, Clone)]
pub struct StateBuffer {
    present: FastSet<(Address, U256)>,
    order: VecDeque<(Address, U256)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl Default for StateBuffer {
    fn default() -> Self {
        Self::new(STATE_BUFFER_SLOTS)
    }
}

impl StateBuffer {
    /// Creates a buffer holding up to `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        StateBuffer {
            present: FastSet::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
        }
    }

    /// `true` when the slot is resident.
    pub fn contains(&self, addr: Address, key: U256) -> bool {
        self.present.contains(&(addr, key))
    }

    /// Looks a slot up, counting reuse; on a miss the slot is loaded
    /// (inserted). Returns `true` on a hit.
    pub fn probe(&mut self, addr: Address, key: U256) -> bool {
        if self.present.contains(&(addr, key)) {
            self.hits += 1;
            if mtpu_telemetry::enabled() {
                crate::obs::metrics().sb_hit.inc();
            }
            true
        } else {
            self.misses += 1;
            if mtpu_telemetry::enabled() {
                crate::obs::metrics().sb_miss.inc();
            }
            self.insert(addr, key);
            false
        }
    }

    /// Inserts a slot, evicting FIFO when full.
    pub fn insert(&mut self, addr: Address, key: U256) {
        if self.present.insert((addr, key)) {
            self.inserts += 1;
            self.order.push_back((addr, key));
            while self.order.len() > self.capacity {
                if let Some(victim) = self.order.pop_front() {
                    self.present.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
    }

    /// Cumulative statistics since construction ([`StateBuffer::clear`]
    /// drops the contents, not the counters).
    pub fn stats(&self) -> StateBufferStats {
        StateBufferStats {
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions,
            resident: self.present.len(),
        }
    }

    /// Drops everything (per-transaction reset without the redundancy
    /// optimization).
    pub fn clear(&mut self) {
        self.present.clear();
        self.order.clear();
    }

    /// Number of resident slots.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }
}

/// Cycle-level outcome of one transaction on one PU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxTiming {
    /// Total cycles including context loads.
    pub cycles: u64,
    /// Cycles spent loading contexts from main memory.
    pub ctx_load_cycles: u64,
    /// Original instructions retired.
    pub instructions: u64,
    /// Issue events (lines or single ops).
    pub issue_events: u64,
    /// DB-cache line hits.
    pub db_hits: u64,
    /// DB-cache lookups.
    pub db_lookups: u64,
    /// Context bytes loaded from main memory.
    pub bytes_loaded: u64,
    /// SLOADs served from the prefetched data cache.
    pub prefetch_hits: u64,
    /// Instructions never executed thanks to pre-execution.
    pub skipped_preexec: u64,
    /// PUSHes eliminated into the Constants Table.
    pub eliminated: u64,
}

impl TxTiming {
    /// Instructions per issue cycle (the paper's Table 7 IPC metric).
    pub fn ipc(&self) -> f64 {
        if self.issue_events == 0 {
            0.0
        } else {
            self.instructions as f64 / self.issue_events as f64
        }
    }

    /// DB-cache hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.db_lookups == 0 {
            0.0
        } else {
            self.db_hits as f64 / self.db_lookups as f64
        }
    }

    /// Accumulates another transaction's timing (for batch statistics).
    pub fn accumulate(&mut self, other: &TxTiming) {
        self.cycles += other.cycles;
        self.ctx_load_cycles += other.ctx_load_cycles;
        self.instructions += other.instructions;
        self.issue_events += other.issue_events;
        self.db_hits += other.db_hits;
        self.db_lookups += other.db_lookups;
        self.bytes_loaded += other.bytes_loaded;
        self.prefetch_hits += other.prefetch_hits;
        self.skipped_preexec += other.skipped_preexec;
        self.eliminated += other.eliminated;
    }
}

/// Cumulative per-PU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PuStats {
    /// DB-cache statistics since construction.
    pub db: DbCacheStats,
    /// Contract code identities resident in the Call_Contract Stack.
    pub contract_stack_resident: usize,
}

/// One processing unit with its private DB cache and Call_Contract Stack.
#[derive(Debug, Clone)]
pub struct Pu {
    /// PU index within the MTPU.
    pub id: usize,
    cache: DbCache,
    /// Recently loaded contract code identities (bytecode reuse).
    contract_stack: VecDeque<B256>,
    /// Contract executed by the last transaction (redundancy affinity).
    pub last_code: Option<B256>,
}

impl Pu {
    /// Creates PU `id` under `cfg`.
    pub fn new(id: usize, cfg: &MtpuConfig) -> Self {
        Pu {
            id,
            cache: DbCache::new(cfg.db_cache),
            contract_stack: VecDeque::new(),
            last_code: None,
        }
    }

    /// Cumulative statistics (DB cache and Call_Contract Stack).
    pub fn stats(&self) -> PuStats {
        PuStats {
            db: self.cache.stats(),
            contract_stack_resident: self.contract_stack.len(),
        }
    }

    /// Executes one transaction, returning its timing.
    ///
    /// Without the redundancy optimization the execution context is
    /// reconstructed from scratch: DB cache, Call_Contract Stack and
    /// State Buffer are cleared first (the paper's per-transaction
    /// context rebuild, §3.1(3)).
    pub fn execute(
        &mut self,
        job: &TxJob,
        state_buffer: &mut StateBuffer,
        cfg: &MtpuConfig,
    ) -> TxTiming {
        if !cfg.redundancy_opt {
            self.cache.flush();
            self.contract_stack.clear();
            state_buffer.clear();
        }
        // Hit/lookup counts are owned by the cache; the per-transaction
        // numbers are the deltas accrued during this call (force-hit mode
        // bypasses the cache and counts manually).
        let db0 = self.cache.stats();
        let mut t = TxTiming {
            instructions: job.instructions,
            skipped_preexec: job.stream_stats.skipped_preexec,
            eliminated: job.stream_stats.eliminated,
            ..Default::default()
        };

        if job.is_plain_transfer() {
            // Two balance slots touched in main memory plus the fixed
            // context fields.
            self.charge_ctx(&mut t, FIXED_CONTEXT_BYTES, cfg);
            t.cycles += 2 * cfg.lat.state_miss;
            t.issue_events += 1;
            self.last_code = None;
            self.finish_timing(&mut t, db0);
            return t;
        }

        let mut cur_frame = u32::MAX;
        let mut builder: Option<LineBuilder> = None;
        let mut i = 0usize;
        while i < job.stream.len() {
            let u = job.stream[i];
            if u.frame != cur_frame {
                cur_frame = u.frame;
                // Close any in-flight line at the frame boundary.
                self.finish_builder(&mut builder);
                let bytes = self.frame_load_bytes(job, u.frame as usize, cfg);
                self.charge_ctx(&mut t, bytes, cfg);
            }
            let code = job.frames[u.frame as usize].code_hash;

            if !cfg.enable_db_cache {
                // Scalar in-order issue: one instruction per event.
                t.cycles += self.dyn_lat(&u, job, state_buffer, cfg, &mut t);
                t.issue_events += 1;
                i += 1;
                continue;
            }

            if cfg.force_hit {
                // Upper-bound mode: partition the stream by the fill
                // rules; every line issues in one event.
                let n = self.take_line_greedy(&job.stream[i..], code, cfg);
                let mut worst = 0;
                for u2 in &job.stream[i..i + n] {
                    worst = worst.max(self.dyn_lat(u2, job, state_buffer, cfg, &mut t));
                }
                t.cycles += worst;
                t.issue_events += 1;
                t.db_hits += 1;
                t.db_lookups += 1;
                i += n;
                continue;
            }

            // Normal mode: look the line up.
            let key = LineKey { code, pc: u.pc };
            let hit_len = self
                .cache
                .lookup(&key)
                .and_then(|line| match_line(line, &job.stream[i..]));
            if let Some(n) = hit_len {
                self.finish_builder(&mut builder);
                let mut worst = 0;
                for u2 in &job.stream[i..i + n] {
                    worst = worst.max(self.dyn_lat(u2, job, state_buffer, cfg, &mut t));
                }
                t.cycles += worst;
                t.issue_events += 1;
                i += n;
                continue;
            }
            // Miss: normal decode path; the fill unit works in the bypass.
            t.cycles += self.dyn_lat(&u, job, state_buffer, cfg, &mut t);
            t.issue_events += 1;
            let b = builder.get_or_insert_with(|| LineBuilder::new(code, cfg.enable_forwarding));
            if let Err(stop) = b.try_add(&u) {
                if mtpu_telemetry::enabled() {
                    crate::obs::fill_stop(stop);
                }
                let full = std::mem::replace(b, LineBuilder::new(code, cfg.enable_forwarding));
                if let Some(line) = full.finish() {
                    self.store_line(line);
                }
                // The rejected op opens the new line.
                let _ = b.try_add(&u);
            }
            i += 1;
        }
        self.finish_builder(&mut builder);
        self.last_code = Some(job.top_code());
        self.finish_timing(&mut t, db0);
        t
    }

    /// Folds the call's DB-cache delta into `t` and publishes telemetry.
    fn finish_timing(&self, t: &mut TxTiming, db0: DbCacheStats) {
        let db1 = self.cache.stats();
        t.db_hits += db1.hits - db0.hits;
        t.db_lookups += db1.lookups - db0.lookups;
        if mtpu_telemetry::enabled() {
            let m = crate::obs::metrics();
            m.db_hit.add(t.db_hits);
            m.db_miss.add(t.db_lookups - t.db_hits);
            m.ctx_bytes.add(t.bytes_loaded);
            m.ctx_cycles.add(t.ctx_load_cycles);
            m.instructions.add(t.instructions);
            m.issue_events.add(t.issue_events);
            m.cycles.add(t.cycles);
            m.prefetch_hits.add(t.prefetch_hits);
        }
    }

    /// Stores a finalized line, recording fill-unit telemetry.
    fn store_line(&mut self, line: Line) {
        if mtpu_telemetry::enabled() {
            let m = crate::obs::metrics();
            m.db_insert.inc();
            m.db_line_ops.record(line.len() as u64);
        }
        self.cache.insert(line);
    }

    /// Greedy line partition used in force-hit mode.
    fn take_line_greedy(&self, rest: &[MicroOp], code: B256, cfg: &MtpuConfig) -> usize {
        let mut b = LineBuilder::new(code, cfg.enable_forwarding);
        let mut n = 0;
        for u in rest {
            if u.frame != rest[0].frame || b.try_add(u).is_err() {
                break;
            }
            n += 1;
        }
        n.max(1)
    }

    fn finish_builder(&mut self, builder: &mut Option<LineBuilder>) {
        if let Some(b) = builder.take() {
            if let Some(line) = b.finish() {
                self.store_line(line);
            }
        }
    }

    /// Bytes loaded when entering frame `f`, honouring bytecode reuse and
    /// hotspot chunked loading.
    fn frame_load_bytes(&mut self, job: &TxJob, f: usize, cfg: &MtpuConfig) -> u64 {
        let fi = &job.frames[f];
        let mut code_bytes = fi.code_len as u64;
        if f == 0 {
            if let Some(over) = job.loaded_bytes_override {
                code_bytes = over.min(code_bytes);
            }
        }
        if cfg.redundancy_opt && self.contract_stack.contains(&fi.code_hash) {
            // Bytecode already resident in the Call_Contract Stack.
            code_bytes = 0;
        }
        // Track recency.
        if let Some(pos) = self.contract_stack.iter().position(|h| *h == fi.code_hash) {
            self.contract_stack.remove(pos);
        }
        self.contract_stack.push_back(fi.code_hash);
        while self.contract_stack.len() > CONTRACT_STACK_SLOTS {
            self.contract_stack.pop_front();
        }
        code_bytes + fi.input_len as u64 + FIXED_CONTEXT_BYTES
    }

    fn charge_ctx(&mut self, t: &mut TxTiming, bytes: u64, cfg: &MtpuConfig) {
        let cycles = cfg.lat.dram_latency + bytes.div_ceil(cfg.lat.dram_bytes_per_cycle);
        t.ctx_load_cycles += cycles;
        t.cycles += cycles;
        t.bytes_loaded += bytes;
    }

    /// Dynamic latency of one micro-op (storage classes consult the
    /// prefetch flag and the State Buffer).
    fn dyn_lat(
        &mut self,
        u: &MicroOp,
        job: &TxJob,
        state_buffer: &mut StateBuffer,
        cfg: &MtpuConfig,
        t: &mut TxTiming,
    ) -> u64 {
        match lat_class(u.op) {
            LatClass::Storage => {
                let acc = job.storage_at(u.step);
                if u.op == Opcode::Sload {
                    if cfg.hotspot_opt && u.prefetched {
                        t.prefetch_hits += 1;
                        if let Some((a, k)) = acc {
                            state_buffer.insert(a, k);
                        }
                        return cfg.lat.dcache_hit;
                    }
                    match acc {
                        Some((a, k)) => {
                            if state_buffer.probe(a, k) {
                                cfg.lat.state_buffer_hit
                            } else {
                                cfg.lat.state_miss
                            }
                        }
                        None => cfg.lat.state_buffer_hit,
                    }
                } else {
                    // SSTORE: the write buffer absorbs the latency.
                    if let Some((a, k)) = acc {
                        state_buffer.insert(a, k);
                    }
                    cfg.lat.state_buffer_hit
                }
            }
            other => other.base_cycles(&cfg.lat),
        }
    }
}

/// Validates a cached line against the upcoming stream: every op must
/// match pc, opcode, fold flag and frame.
fn match_line(line: &Line, rest: &[MicroOp]) -> Option<usize> {
    if line.ops.len() > rest.len() {
        return None;
    }
    let frame = rest[0].frame;
    for (i, &(pc, op, folded)) in line.ops.iter().enumerate() {
        let u = &rest[i];
        if u.pc != pc || u.op != op || u.const_operand != folded || u.frame != frame {
            return None;
        }
    }
    Some(line.ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::trace::{CallKind, TraceStep};

    fn mk_trace(ops: &[(u32, Opcode)], code_len: u32) -> TxTrace {
        TxTrace {
            frames: vec![FrameInfo {
                depth: 0,
                kind: CallKind::Call,
                code_address: Address::from_low_u64(1),
                storage_address: Address::from_low_u64(1),
                code_hash: B256::keccak(b"code"),
                code_len,
                input_len: 4,
                selector: None,
            }],
            steps: ops
                .iter()
                .map(|&(pc, op)| TraceStep {
                    frame: 0,
                    pc,
                    op: op as u8,
                })
                .collect(),
            storage: Vec::new(),
            gas_used: 21_000,
            success: true,
        }
    }

    #[test]
    fn baseline_is_one_issue_per_instruction() {
        let cfg = MtpuConfig::baseline();
        let trace = mk_trace(
            &[
                (0, Opcode::Push1),
                (2, Opcode::Push1),
                (4, Opcode::Add),
                (5, Opcode::Stop),
            ],
            100,
        );
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &cfg);
        let mut sb = StateBuffer::default();
        let t = pu.execute(&job, &mut sb, &cfg);
        assert_eq!(t.issue_events, 4);
        assert_eq!(t.instructions, 4);
        // 4 simple cycles + context load.
        assert_eq!(t.cycles - t.ctx_load_cycles, 4);
        assert!(t.ctx_load_cycles > 0);
    }

    #[test]
    fn db_cache_hits_on_second_pass() {
        let cfg = MtpuConfig {
            pu_count: 1,
            redundancy_opt: true,
            enable_folding: false,
            ..MtpuConfig::default()
        };
        // Two iterations of the same basic block (as if a loop ran twice).
        let block = [
            (0u32, Opcode::Jumpdest),
            (1, Opcode::Push1),
            (3, Opcode::Caller),
            (4, Opcode::Add),
        ];
        let mut ops: Vec<(u32, Opcode)> = block.to_vec();
        ops.extend_from_slice(&block);
        let trace = mk_trace(&ops, 64);
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &cfg);
        let mut sb = StateBuffer::default();
        let t = pu.execute(&job, &mut sb, &cfg);
        assert!(t.db_hits > 0, "second pass must hit: {t:?}");
        assert!(t.issue_events < 8, "hit lines batch issues");
    }

    #[test]
    fn force_hit_upper_bound_beats_baseline() {
        let ops: Vec<(u32, Opcode)> = (0..50)
            .map(|i| {
                let pc = i * 2;
                match i % 4 {
                    0 => (pc, Opcode::Push1),
                    1 => (pc, Opcode::Caller),
                    2 => (pc, Opcode::Add),
                    _ => (pc, Opcode::Pop),
                }
            })
            .collect();
        let trace = mk_trace(&ops, 200);

        let base_cfg = MtpuConfig::baseline();
        let base_job = TxJob::build(&trace, &base_cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &base_cfg);
        let tb = pu.execute(&base_job, &mut StateBuffer::default(), &base_cfg);

        let ub_cfg = MtpuConfig::if_();
        let ub_job = TxJob::build(&trace, &ub_cfg, &StreamTransforms::none());
        let mut pu2 = Pu::new(0, &ub_cfg);
        let tu = pu2.execute(&ub_job, &mut StateBuffer::default(), &ub_cfg);

        assert!(
            tu.cycles < tb.cycles,
            "upper bound {tu:?} vs baseline {tb:?}"
        );
        assert!(tu.ipc() > 1.5, "grouped issue achieves ILP: {}", tu.ipc());
        assert_eq!(tu.instructions, tb.instructions);
    }

    #[test]
    fn redundancy_reuses_context() {
        let cfg = MtpuConfig {
            pu_count: 1,
            redundancy_opt: true,
            ..MtpuConfig::default()
        };
        let trace = mk_trace(&[(0, Opcode::Caller), (1, Opcode::Stop)], 5_000);
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &cfg);
        let mut sb = StateBuffer::default();
        let t1 = pu.execute(&job, &mut sb, &cfg);
        let t2 = pu.execute(&job, &mut sb, &cfg);
        assert!(
            t2.ctx_load_cycles < t1.ctx_load_cycles,
            "bytecode reuse skips the dominant load: {} -> {}",
            t1.ctx_load_cycles,
            t2.ctx_load_cycles
        );
        assert!(t2.bytes_loaded < t1.bytes_loaded / 10);
    }

    #[test]
    fn no_redundancy_reconstructs_context() {
        let cfg = MtpuConfig {
            pu_count: 1,
            redundancy_opt: false,
            ..MtpuConfig::default()
        };
        let trace = mk_trace(&[(0, Opcode::Caller), (1, Opcode::Stop)], 5_000);
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &cfg);
        let mut sb = StateBuffer::default();
        let t1 = pu.execute(&job, &mut sb, &cfg);
        let t2 = pu.execute(&job, &mut sb, &cfg);
        assert_eq!(t1.ctx_load_cycles, t2.ctx_load_cycles);
        assert_eq!(t1.cycles, t2.cycles);
    }

    #[test]
    fn state_buffer_caches_sloads() {
        let cfg = MtpuConfig::baseline();
        let a = Address::from_low_u64(1);
        let mut trace = mk_trace(
            &[
                (0, Opcode::Push1),
                (2, Opcode::Sload),
                (3, Opcode::Push1),
                (5, Opcode::Sload),
            ],
            64,
        );
        trace.storage = vec![
            mtpu_evm::trace::StorageAccess {
                step: 1,
                address: a,
                key: U256::ONE,
                write: false,
            },
            mtpu_evm::trace::StorageAccess {
                step: 3,
                address: a,
                key: U256::ONE,
                write: false,
            },
        ];
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        let mut pu = Pu::new(0, &cfg);
        let mut sb = StateBuffer::default();
        let t = pu.execute(&job, &mut sb, &cfg);
        // First SLOAD misses, second hits: 2 pushes + miss + hit.
        assert_eq!(
            t.cycles - t.ctx_load_cycles,
            2 + cfg.lat.state_miss + cfg.lat.state_buffer_hit
        );
    }

    #[test]
    fn prefetch_reduces_sload_latency() {
        let mut cfg = MtpuConfig::baseline();
        cfg.hotspot_opt = true;
        let a = Address::from_low_u64(1);
        let mut trace = mk_trace(&[(0, Opcode::Push1), (2, Opcode::Sload)], 64);
        trace.storage = vec![mtpu_evm::trace::StorageAccess {
            step: 1,
            address: a,
            key: U256::ONE,
            write: false,
        }];
        let tr = StreamTransforms {
            prefetched_steps: [1u32].into_iter().collect(),
            ..Default::default()
        };
        let job = TxJob::build(&trace, &cfg, &tr);
        let mut pu = Pu::new(0, &cfg);
        let t = pu.execute(&job, &mut StateBuffer::default(), &cfg);
        assert_eq!(t.prefetch_hits, 1);
        assert_eq!(t.cycles - t.ctx_load_cycles, 1 + 1); // push + dcache hit
    }

    #[test]
    fn plain_transfer_cost() {
        let cfg = MtpuConfig::baseline();
        let trace = TxTrace {
            frames: vec![],
            steps: vec![],
            storage: vec![],
            gas_used: 21_000,
            success: true,
        };
        let job = TxJob::build(&trace, &cfg, &StreamTransforms::none());
        assert!(job.is_plain_transfer());
        let mut pu = Pu::new(0, &cfg);
        let t = pu.execute(&job, &mut StateBuffer::default(), &cfg);
        assert!(t.cycles > 0);
        assert!(t.cycles < 500, "transfers are orders cheaper than SCTs");
    }
}
