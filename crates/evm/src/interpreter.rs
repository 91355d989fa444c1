//! The EVM interpreter: executes one call frame at a time, recursing
//! through the CALL family, with full gas accounting.
//!
//! The control flow mirrors the paper's six-stage pipeline (Fig. 8a):
//! fetch by PC, decode, **gas check** (abort on exhaustion), operand fetch
//! from the stack, execute in a functional unit, write back.

use crate::analysis;
use crate::gas;
use crate::memory::Memory;
use crate::opcode::Opcode;
use crate::stack::{Stack, StackError, STACK_LIMIT};
use crate::state::StateOps;
use crate::trace::{CallKind, FrameInfo, Tracer};
use crate::tx::{BlockHeader, Log};
use mtpu_primitives::map::BoundedMemo;
use mtpu_primitives::{keccak256, Address, B256, U256};
use std::cell::RefCell;

/// Maximum call/create depth (paper §3.3.6: "its maximum depth cannot
/// exceed 1024").
pub const CALL_DEPTH_LIMIT: usize = 1024;
/// Maximum deployed code size (EIP-170).
pub const MAX_CODE_SIZE: usize = 24_576;

/// Why a call frame stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// `STOP` or running off the end of code.
    Stop,
    /// `RETURN` with output data.
    Return,
    /// `REVERT`: state rolled back, remaining gas refunded to caller.
    Revert,
    /// `SELFDESTRUCT`.
    SelfDestruct,
    /// Exceptional halt: all frame gas consumed, state rolled back.
    Exception(VmError),
}

/// Exceptional conditions (each consumes all gas in the frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Gas ran out mid-execution.
    OutOfGas,
    /// Pop/peek on an empty stack.
    StackUnderflow,
    /// Push beyond 1024 entries.
    StackOverflow,
    /// Jump to a non-`JUMPDEST` target.
    InvalidJump,
    /// An undefined opcode or explicit `INVALID`.
    InvalidOpcode,
    /// State mutation inside a `STATICCALL`.
    StaticViolation,
    /// `RETURNDATACOPY` beyond the return buffer.
    ReturnDataOutOfBounds,
    /// Call/create depth exceeded 1024.
    CallDepthExceeded,
    /// `CREATE` collision or oversized deployment.
    CreateError,
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            VmError::OutOfGas => "out of gas",
            VmError::StackUnderflow => "stack underflow",
            VmError::StackOverflow => "stack overflow",
            VmError::InvalidJump => "invalid jump destination",
            VmError::InvalidOpcode => "invalid opcode",
            VmError::StaticViolation => "state mutation in static context",
            VmError::ReturnDataOutOfBounds => "return data access out of bounds",
            VmError::CallDepthExceeded => "call depth exceeded",
            VmError::CreateError => "create failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

impl From<StackError> for VmError {
    fn from(e: StackError) -> Self {
        match e {
            StackError::Underflow => VmError::StackUnderflow,
            StackError::Overflow => VmError::StackOverflow,
        }
    }
}

/// Result of executing one call frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Why the frame stopped.
    pub halt: Halt,
    /// Gas remaining in the frame (returned to the caller except on
    /// exceptions).
    pub gas_left: u64,
    /// Output bytes (`RETURN`/`REVERT` payload).
    pub output: Vec<u8>,
}

impl FrameResult {
    /// `true` for `STOP`, `RETURN` and `SELFDESTRUCT`.
    pub fn success(&self) -> bool {
        matches!(self.halt, Halt::Stop | Halt::Return | Halt::SelfDestruct)
    }

    fn exception(err: VmError) -> FrameResult {
        FrameResult {
            halt: Halt::Exception(err),
            gas_left: 0,
            output: Vec::new(),
        }
    }
}

/// Parameters of a message call.
#[derive(Debug, Clone)]
pub struct CallParams {
    /// Kind of call.
    pub kind: CallKind,
    /// The `msg.sender` visible to the callee.
    pub caller: Address,
    /// Account providing the executed code.
    pub code_address: Address,
    /// Account whose storage is read/written.
    pub storage_address: Address,
    /// The `msg.value`.
    pub value: U256,
    /// Whether value is actually transferred (false for `DELEGATECALL`,
    /// which only inherits the number).
    pub transfers_value: bool,
    /// Calldata.
    pub input: Vec<u8>,
    /// Gas available to the frame.
    pub gas: u64,
    /// Whether mutation is forbidden.
    pub is_static: bool,
    /// Call depth of this frame.
    pub depth: usize,
}

/// The execution engine for one transaction: borrows the world state (any
/// [`StateOps`] implementation — the journaled [`crate::state::State`]
/// directly, or a [`crate::overlay::StateOverlay`] for speculative
/// parallel execution), the block context, and a tracer.
pub struct Evm<'a, S: StateOps, T: Tracer> {
    /// The journaled world state.
    pub state: &'a mut S,
    /// Block-level context for `NUMBER`, `COINBASE`, `BLOCKHASH`, ...
    pub header: &'a BlockHeader,
    /// Transaction-level context (`ORIGIN`, `GASPRICE`).
    pub origin: Address,
    /// Gas price for `GASPRICE`.
    pub gas_price: U256,
    /// Trace observer.
    pub tracer: &'a mut T,
    /// Accumulated logs (discarded for reverted frames).
    pub logs: Vec<Log>,
    /// SSTORE clearing refund counter.
    pub refund: u64,
}

/// Replays the constituent instructions of a fused region into the tracer
/// (and the per-category telemetry counters), so trace-driven consumers —
/// the MTPU cycle model replays `TxTrace` step streams — observe the
/// identical dynamic instruction stream with or without fusion.
fn replay_constituents<T: Tracer>(tracer: &mut T, code: &[u8], start: usize, len: usize) {
    let end = (start + len).min(code.len());
    let telemetry = mtpu_telemetry::enabled();
    let mut q = start;
    while q < end {
        let Some(op) = Opcode::from_u8(code[q]) else {
            debug_assert!(false, "fused regions contain only defined opcodes");
            return;
        };
        tracer.step(q, op);
        if telemetry {
            crate::obs::metrics().ops_by_category[op.category().index()].inc();
        }
        q += 1 + op.immediate_len();
    }
}

/// The `CALLDATALOAD` word at `off`: 32 bytes of `input`, zero-padded past
/// its end.
fn calldata_word(input: &[u8], off: usize) -> U256 {
    let mut word = [0u8; 32];
    for (i, b) in word.iter_mut().enumerate() {
        *b = input.get(off.wrapping_add(i)).copied().unwrap_or(0);
    }
    U256::from_be_bytes(word)
}

/// Reusable per-frame execution buffers: the fixed-capacity operand stack
/// (32 KiB once zeroed) and the byte memory.
struct FrameBufs {
    stack: Stack,
    memory: Memory,
}

thread_local! {
    /// Per-thread freelist of frame buffers. Frames on the same thread
    /// reuse one allocation per concurrent depth level for the whole
    /// thread lifetime, so the stack's one-time buffer cost amortizes
    /// across transactions (each parallel worker keeps its own pool).
    static FRAME_POOL: RefCell<Vec<FrameBufs>> = const { RefCell::new(Vec::new()) };
}

/// Most buffers the pool retains; deeper recursion allocates fresh.
const FRAME_POOL_MAX: usize = 64;
/// Pooled memories above this capacity are dropped rather than retained.
const FRAME_POOL_MAX_MEMORY: usize = 1 << 20;

/// Most `SHA3` inputs a thread's memo holds. Full, a memo is ~1.2 MB: 8 192
/// map buckets of 105 bytes plus a 4 096-entry queue of 72 bytes.
const SHA3_MEMO_CAPACITY: usize = 4096;

thread_local! {
    /// Per-thread memo of `SHA3` over 64-byte inputs, the Solidity
    /// mapping-slot shape `keccak(key ‖ slot)`. The node's lane runs a
    /// transaction's admission and its block execution on one thread, so
    /// the first warms the memo for the second.
    static SHA3_MEMO: RefCell<BoundedMemo<[u8; 64], [u8; 32]>> =
        RefCell::new(BoundedMemo::new(SHA3_MEMO_CAPACITY));
}

/// The `SHA3` opcode's digest of `input`: through this thread's memo when
/// the input is 64 bytes, [`keccak256`] directly otherwise.
fn sha3(input: &[u8]) -> [u8; 32] {
    let Ok(key) = <&[u8; 64]>::try_from(input) else {
        return keccak256(input);
    };
    SHA3_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let hit = memo.get(key).copied();
        if mtpu_telemetry::enabled() {
            let m = crate::obs::metrics();
            if hit.is_some() {
                m.sha3_hits.inc()
            } else {
                m.sha3_misses.inc()
            }
        }
        hit.unwrap_or_else(|| {
            let hash = keccak256(key);
            memo.insert(*key, hash);
            hash
        })
    })
}

/// RAII handle that returns its buffers (cleared) to the pool on drop, so
/// every `return` path of the dispatch loop recycles them.
struct PooledBufs(Option<FrameBufs>);

impl PooledBufs {
    fn acquire() -> PooledBufs {
        let bufs = FRAME_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_else(|| FrameBufs {
                stack: Stack::new(),
                memory: Memory::new(),
            });
        PooledBufs(Some(bufs))
    }
}

impl Drop for PooledBufs {
    fn drop(&mut self) {
        if let Some(mut bufs) = self.0.take() {
            if bufs.memory.capacity() > FRAME_POOL_MAX_MEMORY {
                return;
            }
            bufs.stack.clear();
            bufs.memory.clear();
            FRAME_POOL.with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < FRAME_POOL_MAX {
                    pool.push(bufs);
                }
            });
        }
    }
}

impl<'a, S: StateOps, T: Tracer> Evm<'a, S, T> {
    /// Creates an engine for one transaction.
    pub fn new(
        state: &'a mut S,
        header: &'a BlockHeader,
        origin: Address,
        gas_price: U256,
        tracer: &'a mut T,
    ) -> Self {
        Evm {
            state,
            header,
            origin,
            gas_price,
            tracer,
            logs: Vec::new(),
            refund: 0,
        }
    }

    /// Executes a message call (recursively handling nested calls), taking
    /// care of the value transfer and the state checkpoint.
    pub fn call(&mut self, params: CallParams) -> FrameResult {
        if params.depth > CALL_DEPTH_LIMIT {
            return FrameResult::exception(VmError::CallDepthExceeded);
        }
        let cp = self.state.checkpoint();
        let logs_mark = self.logs.len();

        if params.transfers_value
            && !params.value.is_zero()
            && !self
                .state
                .transfer(params.caller, params.storage_address, params.value)
        {
            self.state.revert_to(cp);
            // Insufficient balance is a call failure, not an exception that
            // consumes gas: return the gas to the caller.
            return FrameResult {
                halt: Halt::Revert,
                gas_left: params.gas,
                output: Vec::new(),
            };
        }

        let (code, code_hash) = self.state.load_code_and_hash(params.code_address);
        let selector = if params.input.len() >= 4 {
            let mut s = [0u8; 4];
            s.copy_from_slice(&params.input[..4]);
            Some(s)
        } else {
            None
        };
        self.tracer.frame_start(FrameInfo {
            depth: params.depth as u16,
            kind: params.kind,
            code_address: params.code_address,
            storage_address: params.storage_address,
            code_hash,
            code_len: code.len() as u32,
            input_len: params.input.len() as u32,
            selector,
        });

        if mtpu_telemetry::enabled() {
            crate::obs::metrics().call_depth.record(params.depth as u64);
        }
        let result = self.run_frame_code(&code, code_hash, &params);
        self.tracer.frame_end();
        crate::obs::frame_halt(&result.halt);

        match result.halt {
            Halt::Stop | Halt::Return | Halt::SelfDestruct => result,
            Halt::Revert | Halt::Exception(_) => {
                self.state.revert_to(cp);
                self.logs.truncate(logs_mark);
                result
            }
        }
    }

    /// Executes contract-creation init code and deploys the result.
    pub fn create(
        &mut self,
        creator: Address,
        value: U256,
        init_code: Vec<u8>,
        gas: u64,
        new_address: Address,
        depth: usize,
    ) -> (FrameResult, Option<Address>) {
        if depth > CALL_DEPTH_LIMIT {
            return (FrameResult::exception(VmError::CallDepthExceeded), None);
        }
        // Collision: an account with code or nonce already lives there.
        if self.state.code_size(new_address) != 0 || self.state.nonce(new_address) != 0 {
            return (FrameResult::exception(VmError::CreateError), None);
        }
        let cp = self.state.checkpoint();
        let logs_mark = self.logs.len();
        self.state.bump_nonce(new_address);
        if !value.is_zero() && !self.state.transfer(creator, new_address, value) {
            self.state.revert_to(cp);
            return (
                FrameResult {
                    halt: Halt::Revert,
                    gas_left: gas,
                    output: Vec::new(),
                },
                None,
            );
        }

        let code_hash = B256::keccak(&init_code);
        self.tracer.frame_start(FrameInfo {
            depth: depth as u16,
            kind: CallKind::Create,
            code_address: new_address,
            storage_address: new_address,
            code_hash,
            code_len: init_code.len() as u32,
            input_len: 0,
            selector: None,
        });
        let params = CallParams {
            kind: CallKind::Create,
            caller: creator,
            code_address: new_address,
            storage_address: new_address,
            value,
            transfers_value: false, // already transferred above
            input: Vec::new(),
            gas,
            is_static: false,
            depth,
        };
        if mtpu_telemetry::enabled() {
            crate::obs::metrics().call_depth.record(depth as u64);
        }
        let mut result = self.run_frame_code(&init_code, code_hash, &params);
        self.tracer.frame_end();
        crate::obs::frame_halt(&result.halt);

        if result.success() {
            let deposit = gas::CODE_DEPOSIT * result.output.len() as u64;
            if result.output.len() > MAX_CODE_SIZE || deposit > result.gas_left {
                self.state.revert_to(cp);
                self.logs.truncate(logs_mark);
                return (FrameResult::exception(VmError::CreateError), None);
            }
            result.gas_left -= deposit;
            self.state
                .set_code(new_address, std::mem::take(&mut result.output));
            (result, Some(new_address))
        } else {
            self.state.revert_to(cp);
            self.logs.truncate(logs_mark);
            (result, None)
        }
    }

    /// The interpreter loop proper.
    ///
    /// `code_hash` keys the shared [`analysis::AnalysisCache`]; it must be
    /// the Keccak-256 of `code` (both callers already hold it for tracing).
    fn run_frame_code(&mut self, code: &[u8], code_hash: B256, params: &CallParams) -> FrameResult {
        if code.is_empty() {
            return FrameResult {
                halt: Halt::Stop,
                gas_left: params.gas,
                output: Vec::new(),
            };
        }
        let analysis = analysis::global_cache().get_or_analyze(code_hash, code);
        // Read once per frame: flipping the fusion flag mid-block affects
        // only frames that start afterwards.
        let fusion_on = crate::config::fusion_enabled();
        let mut bufs = PooledBufs::acquire();
        let FrameBufs { stack, memory } = bufs.0.as_mut().expect("buffers held until drop");
        let mut returndata: Vec<u8> = Vec::new();
        let mut gas_left = params.gas;
        let mut pc = 0usize;

        macro_rules! charge {
            ($cost:expr) => {{
                let c: u64 = $cost;
                if gas_left < c {
                    return FrameResult::exception(VmError::OutOfGas);
                }
                gas_left -= c;
            }};
        }
        /// Memory expansion charge for a (offset, len) pair already on the
        /// stack; returns usize offset.
        macro_rules! mem_charge {
            ($memory:expr, $offset:expr, $len:expr) => {{
                let off = $offset;
                let len = $len;
                if len > 0 {
                    // Offsets beyond any plausible memory are caught by gas.
                    let end = match off.checked_add(len) {
                        Some(e) => e,
                        None => return FrameResult::exception(VmError::OutOfGas),
                    };
                    let new_words = gas::words_for(end as u64);
                    let cost = gas::memory_expansion_cost($memory.words(), new_words);
                    if cost > 0 && mtpu_telemetry::enabled() {
                        crate::obs::metrics().mem_expansions.inc();
                    }
                    charge!(cost);
                    $memory.expand(off, len);
                }
            }};
        }

        loop {
            if pc >= code.len() {
                return FrameResult {
                    halt: Halt::Stop,
                    gas_left,
                    output: Vec::new(),
                };
            }
            // Fused superinstruction dispatch: if a fused site starts here,
            // execute the whole constituent run in one step. Gas is the sum
            // of the constituents' static costs and the stack precheck is
            // the folded equivalent of the per-op prechecks (see
            // `crate::fusion`), so receipts are bit-identical either way;
            // per-constituent tracer steps are replayed only for tracers
            // that consume them.
            if fusion_on {
                if let Some(spec) = analysis.fusion().spec_at(pc) {
                    use crate::fusion::FusedKind;
                    let telemetry = mtpu_telemetry::enabled();
                    if telemetry {
                        crate::obs::metrics().fusion_hits.inc();
                    }
                    let emit_steps = telemetry || self.tracer.wants_steps();
                    if let FusedKind::SelectorDispatch { arms } = &spec.kind {
                        // The selector chain checks stack bounds first (its
                        // gas depends on which arm matches), then charges
                        // exactly what the unfused loop would have by the
                        // time the matching arm's JUMPI takes.
                        let sp = stack.len();
                        if sp < spec.need as usize {
                            return FrameResult::exception(VmError::StackUnderflow);
                        }
                        if spec.grow > 0 && sp + spec.grow as usize > STACK_LIMIT {
                            return FrameResult::exception(VmError::StackOverflow);
                        }
                        let word = stack.peek(0).expect("depth prechecked");
                        let sel: Option<u32> = if word.bits() <= 32 {
                            Some(word.low_u64() as u32)
                        } else {
                            None
                        };
                        let mut q = pc;
                        let mut matched: Option<&crate::fusion::SelectorArm> = None;
                        for arm in arms.iter() {
                            if emit_steps {
                                replay_constituents(self.tracer, code, q, arm.len as usize);
                            }
                            if Some(arm.selector) == sel {
                                matched = Some(arm);
                                break;
                            }
                            q += arm.len as usize;
                        }
                        match matched {
                            Some(arm) => {
                                charge!(arm.gas_to_here as u64);
                                if !arm.valid {
                                    return FrameResult::exception(VmError::InvalidJump);
                                }
                                pc = arm.target as usize;
                            }
                            None => {
                                charge!(spec.gas as u64);
                                pc += spec.len as usize;
                            }
                        }
                        continue;
                    }
                    if emit_steps {
                        replay_constituents(self.tracer, code, pc, spec.len as usize);
                    }
                    charge!(spec.gas as u64);
                    let sp = stack.len();
                    if sp < spec.need as usize {
                        return FrameResult::exception(VmError::StackUnderflow);
                    }
                    if spec.grow > 0 && sp + spec.grow as usize > STACK_LIMIT {
                        return FrameResult::exception(VmError::StackOverflow);
                    }
                    match &spec.kind {
                        FusedKind::PushJump { target, valid } => {
                            if !*valid {
                                return FrameResult::exception(VmError::InvalidJump);
                            }
                            pc = *target as usize;
                            continue;
                        }
                        FusedKind::PushJumpi { target, valid } => {
                            let cond = stack.pop_unchecked();
                            if !cond.is_zero() {
                                if !*valid {
                                    return FrameResult::exception(VmError::InvalidJump);
                                }
                                pc = *target as usize;
                                continue;
                            }
                        }
                        FusedKind::IszeroPushJumpi { target, valid } => {
                            let a = stack.pop_unchecked();
                            if a.is_zero() {
                                if !*valid {
                                    return FrameResult::exception(VmError::InvalidJump);
                                }
                                pc = *target as usize;
                                continue;
                            }
                        }
                        FusedKind::LoadSelector => {
                            stack.push_unchecked(calldata_word(&params.input, 0) >> 0xe0);
                        }
                        FusedKind::PushConst { idx } => {
                            stack.push_unchecked(analysis.fusion().const_at(*idx));
                        }
                        FusedKind::PushSload { idx } => {
                            let key = analysis.fusion().const_at(*idx);
                            self.tracer
                                .storage_access(params.storage_address, key, false);
                            stack.push_unchecked(self.state.storage(params.storage_address, key));
                        }
                        FusedKind::DupSload { depth } => {
                            let key = stack.peek(*depth as usize - 1).expect("depth prechecked");
                            self.tracer
                                .storage_access(params.storage_address, key, false);
                            stack.push_unchecked(self.state.storage(params.storage_address, key));
                        }
                        FusedKind::PushMload { offset } => {
                            let off = *offset as usize;
                            mem_charge!(memory, off, 32);
                            stack.push_unchecked(memory.load_word(off));
                        }
                        FusedKind::PushMstore { offset } => {
                            let off = *offset as usize;
                            let v = stack.pop_unchecked();
                            mem_charge!(memory, off, 32);
                            memory.store_word(off, v);
                        }
                        FusedKind::SwapPop => {
                            let top = stack.pop_unchecked();
                            stack.pop_unchecked();
                            stack.push_unchecked(top);
                        }
                        FusedKind::SelectorDispatch { .. } => unreachable!("handled above"),
                    }
                    pc += spec.len as usize;
                    continue;
                }
            }
            let Some(op) = Opcode::from_u8(code[pc]) else {
                return FrameResult::exception(VmError::InvalidOpcode);
            };
            self.tracer.step(pc, op);
            if mtpu_telemetry::enabled() {
                crate::obs::metrics().ops_by_category[op.category().index()].inc();
            }
            // One combined precheck per instruction from the metadata
            // table: static gas first (matching the old charge order, so
            // exhaustion still wins over stack faults), then both stack
            // bounds, which licenses the `*_unchecked` operand accesses in
            // the arms below.
            let info = &analysis::OP_TABLE[code[pc] as usize];
            charge!(info.static_gas as u64);
            let sp = stack.len();
            if sp < info.min_stack as usize {
                return FrameResult::exception(VmError::StackUnderflow);
            }
            if info.net > 0 && sp + info.net as usize > STACK_LIMIT {
                return FrameResult::exception(VmError::StackOverflow);
            }

            use Opcode::*;
            match op {
                Stop => {
                    return FrameResult {
                        halt: Halt::Stop,
                        gas_left,
                        output: Vec::new(),
                    }
                }
                Add | Mul | Sub | Div | Sdiv | Mod | Smod | Addmod | Mulmod | Exp | Signextend
                | Lt | Gt | Slt | Sgt | Eq | Iszero | And | Or | Xor | Not | Byte | Shl | Shr
                | Sar => {
                    if op == Exp {
                        // EXP's per-byte gas is priced on its exponent, the
                        // second operand.
                        let exponent = stack.peek(1).expect("depth prechecked");
                        charge!(gas::EXP_BYTE * (exponent.bits() as u64).div_ceil(8));
                    }
                    let a = stack.pop_unchecked();
                    let b = if info.min_stack > 1 {
                        stack.pop_unchecked()
                    } else {
                        U256::ZERO
                    };
                    let c = if info.min_stack > 2 {
                        stack.pop_unchecked()
                    } else {
                        U256::ZERO
                    };
                    stack.push_unchecked(op.eval_pure(a, b, c).expect("a pure opcode"));
                }
                Sha3 => {
                    let (off, len) = (
                        stack.pop_unchecked().saturating_to_usize(),
                        stack.pop_unchecked().saturating_to_usize(),
                    );
                    charge!(gas::SHA3_WORD * gas::words_for(len as u64));
                    mem_charge!(memory, off, len);
                    let hash = sha3(memory.slice(off, len));
                    stack.push_unchecked(U256::from_be_bytes(hash));
                }
                Address => stack.push_unchecked(params.storage_address.to_u256()),
                Balance => {
                    let a = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    stack.push_unchecked(self.state.balance(a));
                }
                Origin => stack.push_unchecked(self.origin.to_u256()),
                Caller => stack.push_unchecked(params.caller.to_u256()),
                Callvalue => stack.push_unchecked(params.value),
                Calldataload => {
                    let off = stack.pop_unchecked().saturating_to_usize();
                    stack.push_unchecked(calldata_word(&params.input, off));
                }
                Calldatasize => stack.push_unchecked(U256::from(params.input.len() as u64)),
                Calldatacopy | Codecopy | Returndatacopy => {
                    let dst = stack.pop_unchecked().saturating_to_usize();
                    let src = stack.pop_unchecked().saturating_to_usize();
                    let len = stack.pop_unchecked().saturating_to_usize();
                    charge!(gas::COPY_WORD * gas::words_for(len as u64));
                    mem_charge!(memory, dst, len);
                    let source: &[u8] = match op {
                        Calldatacopy => &params.input,
                        Codecopy => code,
                        _ => {
                            let in_bounds = src
                                .checked_add(len)
                                .map(|end| end <= returndata.len())
                                .unwrap_or(false);
                            if !in_bounds {
                                return FrameResult::exception(VmError::ReturnDataOutOfBounds);
                            }
                            &returndata
                        }
                    };
                    let tail = if src < source.len() {
                        &source[src..]
                    } else {
                        &[]
                    };
                    memory.copy_from(dst, tail, len);
                }
                Codesize => stack.push_unchecked(U256::from(code.len() as u64)),
                Gasprice => stack.push_unchecked(self.gas_price),
                Extcodesize => {
                    let a = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    stack.push_unchecked(U256::from(self.state.code_size(a) as u64));
                }
                Extcodecopy => {
                    let a = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    let dst = stack.pop_unchecked().saturating_to_usize();
                    let src = stack.pop_unchecked().saturating_to_usize();
                    let len = stack.pop_unchecked().saturating_to_usize();
                    charge!(gas::COPY_WORD * gas::words_for(len as u64));
                    mem_charge!(memory, dst, len);
                    let ext = self.state.load_code(a);
                    let tail = if src < ext.len() { &ext[src..] } else { &[] };
                    memory.copy_from(dst, tail, len);
                }
                Returndatasize => stack.push_unchecked(U256::from(returndata.len() as u64)),
                Extcodehash => {
                    let a = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    stack.push_unchecked(self.state.code_hash(a).to_u256());
                }
                Blockhash => {
                    let n = stack.pop_unchecked();
                    let h = match n.try_to_u64() {
                        Some(num) => self.header.block_hash(num),
                        None => B256::ZERO,
                    };
                    stack.push_unchecked(h.to_u256());
                }
                Coinbase => stack.push_unchecked(self.header.coinbase.to_u256()),
                Timestamp => stack.push_unchecked(U256::from(self.header.timestamp)),
                Number => stack.push_unchecked(U256::from(self.header.height)),
                Difficulty => stack.push_unchecked(self.header.difficulty),
                Gaslimit => stack.push_unchecked(U256::from(self.header.gas_limit)),
                Pop => {
                    stack.pop_unchecked();
                }
                Mload => {
                    let off = stack.pop_unchecked().saturating_to_usize();
                    mem_charge!(memory, off, 32);
                    stack.push_unchecked(memory.load_word(off));
                }
                Mstore => {
                    let off = stack.pop_unchecked().saturating_to_usize();
                    let v = stack.pop_unchecked();
                    mem_charge!(memory, off, 32);
                    memory.store_word(off, v);
                }
                Mstore8 => {
                    let off = stack.pop_unchecked().saturating_to_usize();
                    let v = stack.pop_unchecked();
                    mem_charge!(memory, off, 1);
                    memory.store_byte(off, v.low_u64() as u8);
                }
                Sload => {
                    let key = stack.pop_unchecked();
                    self.tracer
                        .storage_access(params.storage_address, key, false);
                    stack.push_unchecked(self.state.storage(params.storage_address, key));
                }
                Sstore => {
                    if params.is_static {
                        return FrameResult::exception(VmError::StaticViolation);
                    }
                    let key = stack.pop_unchecked();
                    let value = stack.pop_unchecked();
                    let current = self.state.storage(params.storage_address, key);
                    let cost = if current.is_zero() && !value.is_zero() {
                        gas::SSTORE_SET
                    } else {
                        gas::SSTORE_RESET
                    };
                    charge!(cost);
                    if !current.is_zero() && value.is_zero() {
                        self.refund += gas::SSTORE_CLEAR_REFUND;
                    }
                    self.tracer
                        .storage_access(params.storage_address, key, true);
                    self.state.set_storage(params.storage_address, key, value);
                }
                Jump => {
                    let dest = stack.pop_unchecked().saturating_to_usize();
                    if !analysis.is_jumpdest(dest) {
                        return FrameResult::exception(VmError::InvalidJump);
                    }
                    pc = dest;
                    continue;
                }
                Jumpi => {
                    let dest = stack.pop_unchecked().saturating_to_usize();
                    let cond = stack.pop_unchecked();
                    if !cond.is_zero() {
                        if !analysis.is_jumpdest(dest) {
                            return FrameResult::exception(VmError::InvalidJump);
                        }
                        pc = dest;
                        continue;
                    }
                }
                Pc => stack.push_unchecked(U256::from(pc as u64)),
                Msize => stack.push_unchecked(U256::from(memory.len() as u64)),
                Gas => stack.push_unchecked(U256::from(gas_left)),
                Jumpdest => {}
                Log0 | Log1 | Log2 | Log3 | Log4 => {
                    if params.is_static {
                        return FrameResult::exception(VmError::StaticViolation);
                    }
                    let topic_count = (op as u8 - Log0 as u8) as usize;
                    let off = stack.pop_unchecked().saturating_to_usize();
                    let len = stack.pop_unchecked().saturating_to_usize();
                    charge!(gas::LOG_TOPIC * topic_count as u64 + gas::LOG_DATA * len as u64);
                    mem_charge!(memory, off, len);
                    let mut topics = Vec::with_capacity(topic_count);
                    for _ in 0..topic_count {
                        topics.push(B256::from_u256(stack.pop_unchecked()));
                    }
                    self.logs.push(Log {
                        address: params.storage_address,
                        topics,
                        data: memory.slice(off, len).to_vec(),
                    });
                }
                Create | Create2 => {
                    if params.is_static {
                        return FrameResult::exception(VmError::StaticViolation);
                    }
                    let value = stack.pop_unchecked();
                    let off = stack.pop_unchecked().saturating_to_usize();
                    let len = stack.pop_unchecked().saturating_to_usize();
                    let salt = if op == Create2 {
                        let s = stack.pop_unchecked();
                        charge!(gas::SHA3_WORD * gas::words_for(len as u64));
                        Some(B256::from_u256(s))
                    } else {
                        None
                    };
                    mem_charge!(memory, off, len);
                    let init_code = memory.slice(off, len).to_vec();
                    let creator = params.storage_address;
                    let new_address = match salt {
                        Some(s) => mtpu_primitives::Address::create2(creator, s, &init_code),
                        None => {
                            mtpu_primitives::Address::create(creator, self.state.nonce(creator))
                        }
                    };
                    self.state.bump_nonce(creator);
                    let child_gas = gas::max_call_gas(gas_left);
                    gas_left -= child_gas;
                    let (res, created) = self.create(
                        creator,
                        value,
                        init_code,
                        child_gas,
                        new_address,
                        params.depth + 1,
                    );
                    gas_left += res.gas_left;
                    returndata = if matches!(res.halt, Halt::Revert) {
                        res.output
                    } else {
                        Vec::new()
                    };
                    stack.push_unchecked(match created {
                        Some(a) => a.to_u256(),
                        None => U256::ZERO,
                    });
                }
                Call | Callcode | Delegatecall | Staticcall => {
                    let gas_req = stack.pop_unchecked();
                    let to = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    let value = if matches!(op, Call | Callcode) {
                        stack.pop_unchecked()
                    } else {
                        U256::ZERO
                    };
                    let in_off = stack.pop_unchecked().saturating_to_usize();
                    let in_len = stack.pop_unchecked().saturating_to_usize();
                    let out_off = stack.pop_unchecked().saturating_to_usize();
                    let out_len = stack.pop_unchecked().saturating_to_usize();

                    if op == Call && params.is_static && !value.is_zero() {
                        return FrameResult::exception(VmError::StaticViolation);
                    }

                    let mut extra = 0u64;
                    if !value.is_zero() {
                        extra += gas::CALL_VALUE;
                        if op == Call && !self.state.exists(to) {
                            extra += gas::CALL_NEW_ACCOUNT;
                        }
                    }
                    charge!(extra);
                    mem_charge!(memory, in_off, in_len);
                    mem_charge!(memory, out_off, out_len);

                    let cap = gas::max_call_gas(gas_left);
                    let mut child_gas = match gas_req.try_to_u64() {
                        Some(g) => g.min(cap),
                        None => cap,
                    };
                    gas_left -= child_gas;
                    if !value.is_zero() {
                        child_gas += gas::CALL_STIPEND;
                    }

                    let input = memory.slice(in_off, in_len).to_vec();
                    let child = match op {
                        Call => CallParams {
                            kind: CallKind::Call,
                            caller: params.storage_address,
                            code_address: to,
                            storage_address: to,
                            value,
                            transfers_value: true,
                            input,
                            gas: child_gas,
                            is_static: params.is_static,
                            depth: params.depth + 1,
                        },
                        Callcode => CallParams {
                            kind: CallKind::CallCode,
                            caller: params.storage_address,
                            code_address: to,
                            storage_address: params.storage_address,
                            value,
                            transfers_value: false,
                            input,
                            gas: child_gas,
                            is_static: params.is_static,
                            depth: params.depth + 1,
                        },
                        Delegatecall => CallParams {
                            kind: CallKind::DelegateCall,
                            caller: params.caller,
                            code_address: to,
                            storage_address: params.storage_address,
                            value: params.value,
                            transfers_value: false,
                            input,
                            gas: child_gas,
                            is_static: params.is_static,
                            depth: params.depth + 1,
                        },
                        _ => CallParams {
                            kind: CallKind::StaticCall,
                            caller: params.storage_address,
                            code_address: to,
                            storage_address: to,
                            value: U256::ZERO,
                            transfers_value: false,
                            input,
                            gas: child_gas,
                            is_static: true,
                            depth: params.depth + 1,
                        },
                    };
                    let res = self.call(child);
                    gas_left += res.gas_left;
                    let ok = res.success();
                    returndata = res.output;
                    let n = returndata.len().min(out_len);
                    if n > 0 {
                        memory.copy_from(out_off, &returndata[..n], n);
                    }
                    stack.push_unchecked(U256::from(ok));
                }
                Return | Revert => {
                    let off = stack.pop_unchecked().saturating_to_usize();
                    let len = stack.pop_unchecked().saturating_to_usize();
                    mem_charge!(memory, off, len);
                    return FrameResult {
                        halt: if op == Return {
                            Halt::Return
                        } else {
                            Halt::Revert
                        },
                        gas_left,
                        output: memory.slice(off, len).to_vec(),
                    };
                }
                Invalid => return FrameResult::exception(VmError::InvalidOpcode),
                Selfdestruct => {
                    if params.is_static {
                        return FrameResult::exception(VmError::StaticViolation);
                    }
                    let beneficiary = mtpu_primitives::Address::from_u256(stack.pop_unchecked());
                    let balance = self.state.balance(params.storage_address);
                    self.state
                        .transfer(params.storage_address, beneficiary, balance);
                    self.state.mark_destructed(params.storage_address);
                    return FrameResult {
                        halt: Halt::SelfDestruct,
                        gas_left,
                        output: Vec::new(),
                    };
                }
                _ => {
                    // PUSH / DUP / SWAP families.
                    if op.is_push() {
                        let n = op.immediate_len();
                        let end = (pc + 1 + n).min(code.len());
                        let v = U256::from_be_slice(&code[pc + 1..end]);
                        // Short reads at end-of-code are zero-padded on the
                        // right per EVM semantics.
                        let v = if end - (pc + 1) < n {
                            v << (8 * (n - (end - pc - 1)))
                        } else {
                            v
                        };
                        stack.push_unchecked(v);
                        pc += 1 + n;
                        continue;
                    } else if op.is_dup() {
                        stack.dup_unchecked((op as u8 - 0x7f) as usize);
                    } else if op.is_swap() {
                        stack.swap_unchecked((op as u8 - 0x8f) as usize);
                    } else {
                        return FrameResult::exception(VmError::InvalidOpcode);
                    }
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use crate::trace::NoopTracer;
    use mtpu_primitives::SplitMix64;

    fn run_code(code: Vec<u8>, gas: u64) -> (FrameResult, State) {
        let mut state = State::new();
        let contract = Address::from_low_u64(0xc0de);
        state.deploy_code(contract, code);
        let header = BlockHeader::default();
        let mut tracer = NoopTracer;
        let caller = Address::from_low_u64(1);
        state.credit(caller, U256::from(1_000_000u64));
        let mut evm = Evm::new(&mut state, &header, caller, U256::ONE, &mut tracer);
        let res = evm.call(CallParams {
            kind: CallKind::Call,
            caller,
            code_address: contract,
            storage_address: contract,
            value: U256::ZERO,
            transfers_value: false,
            input: Vec::new(),
            gas,
            is_static: false,
            depth: 0,
        });
        (res, state)
    }

    #[test]
    fn push_add_return() {
        // PUSH1 2, PUSH1 3, ADD, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN
        let code = vec![
            0x60, 0x02, 0x60, 0x03, 0x01, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let (res, _) = run_code(code, 100_000);
        assert!(res.success());
        assert_eq!(U256::from_be_slice(&res.output), U256::from(5u64));
    }

    #[test]
    fn out_of_gas_consumes_all() {
        let code = vec![0x60, 0x02, 0x60, 0x03, 0x01, 0x00];
        let (res, _) = run_code(code, 5);
        assert_eq!(res.halt, Halt::Exception(VmError::OutOfGas));
        assert_eq!(res.gas_left, 0);
    }

    #[test]
    fn invalid_jump_fails() {
        // PUSH1 3, JUMP (3 is not a JUMPDEST)
        let code = vec![0x60, 0x03, 0x56, 0x00];
        let (res, _) = run_code(code, 100_000);
        assert_eq!(res.halt, Halt::Exception(VmError::InvalidJump));
    }

    #[test]
    fn jump_to_jumpdest_works() {
        // PUSH1 4, JUMP, INVALID, JUMPDEST, STOP
        let code = vec![0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
        let (res, _) = run_code(code, 100_000);
        assert!(res.success());
    }

    #[test]
    fn jumpdest_inside_push_immediate_is_invalid() {
        // PUSH2 0x5b00, PUSH1 1, JUMP -> target 1 is inside the immediate.
        let code = vec![0x61, 0x5b, 0x00, 0x60, 0x01, 0x56];
        let (res, _) = run_code(code, 100_000);
        assert_eq!(res.halt, Halt::Exception(VmError::InvalidJump));
    }

    #[test]
    fn sstore_and_sload() {
        // PUSH1 7, PUSH1 1, SSTORE, PUSH1 1, SLOAD, PUSH1 0, MSTORE,
        // PUSH1 32, PUSH1 0, RETURN
        let code = vec![
            0x60, 0x07, 0x60, 0x01, 0x55, 0x60, 0x01, 0x54, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60,
            0x00, 0xf3,
        ];
        let (res, state) = run_code(code, 100_000);
        assert!(res.success());
        assert_eq!(U256::from_be_slice(&res.output), U256::from(7u64));
        assert_eq!(
            state.storage(Address::from_low_u64(0xc0de), U256::ONE),
            U256::from(7u64)
        );
    }

    #[test]
    fn revert_rolls_back_storage() {
        // PUSH1 7, PUSH1 1, SSTORE, PUSH1 0, PUSH1 0, REVERT
        let code = vec![0x60, 0x07, 0x60, 0x01, 0x55, 0x60, 0x00, 0x60, 0x00, 0xfd];
        let (res, state) = run_code(code, 100_000);
        assert_eq!(res.halt, Halt::Revert);
        assert!(res.gas_left > 0, "revert refunds remaining gas");
        assert_eq!(
            state.storage(Address::from_low_u64(0xc0de), U256::ONE),
            U256::ZERO
        );
    }

    #[test]
    fn sha3_hashes_memory() {
        // PUSH1 0, PUSH1 0, SHA3 => keccak of empty
        let code = vec![
            0x60, 0x00, 0x60, 0x00, 0x20, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let (res, _) = run_code(code, 100_000);
        assert!(res.success());
        assert_eq!(res.output, keccak256(&[]).to_vec());
    }

    #[test]
    fn calldataload_pads_with_zeros() {
        let mut state = State::new();
        let contract = Address::from_low_u64(0xc0de);
        // CALLDATALOAD at 0, return it.
        state.deploy_code(
            contract,
            vec![
                0x60, 0x00, 0x35, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
            ],
        );
        let header = BlockHeader::default();
        let mut tracer = NoopTracer;
        let caller = Address::from_low_u64(1);
        let mut evm = Evm::new(&mut state, &header, caller, U256::ONE, &mut tracer);
        let res = evm.call(CallParams {
            kind: CallKind::Call,
            caller,
            code_address: contract,
            storage_address: contract,
            value: U256::ZERO,
            transfers_value: false,
            input: vec![0xab],
            gas: 100_000,
            is_static: false,
            depth: 0,
        });
        assert!(res.success());
        let expect = U256::from(0xabu64) << 248;
        assert_eq!(U256::from_be_slice(&res.output), expect);
    }

    #[test]
    fn static_call_blocks_sstore() {
        let mut state = State::new();
        let callee = Address::from_low_u64(0xbeef);
        // SSTORE in callee.
        state.deploy_code(callee, vec![0x60, 0x01, 0x60, 0x01, 0x55, 0x00]);
        let caller_contract = Address::from_low_u64(0xc0de);
        // STATICCALL(gas, callee, 0, 0, 0, 0); return the flag.
        state.deploy_code(
            caller_contract,
            vec![
                0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x61, 0xbe, 0xef, 0x61, 0xff, 0xff,
                0xfa, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
            ],
        );
        let header = BlockHeader::default();
        let mut tracer = NoopTracer;
        let origin = Address::from_low_u64(1);
        let mut evm = Evm::new(&mut state, &header, origin, U256::ONE, &mut tracer);
        let res = evm.call(CallParams {
            kind: CallKind::Call,
            caller: origin,
            code_address: caller_contract,
            storage_address: caller_contract,
            value: U256::ZERO,
            transfers_value: false,
            input: Vec::new(),
            gas: 200_000,
            is_static: false,
            depth: 0,
        });
        assert!(res.success());
        // Inner static call must have failed (flag == 0).
        assert_eq!(U256::from_be_slice(&res.output), U256::ZERO);
        assert_eq!(state.storage(callee, U256::ONE), U256::ZERO);
    }

    #[test]
    fn stack_overflow_detected() {
        // JUMPDEST, PUSH1 1, PUSH1 0, JUMP — infinite push loop.
        let code = vec![0x5b, 0x60, 0x01, 0x60, 0x00, 0x56];
        let (res, _) = run_code(code, 10_000_000);
        assert_eq!(res.halt, Halt::Exception(VmError::StackOverflow));
    }

    #[test]
    fn fused_dispatch_matches_unfused_results_and_trace() {
        use crate::trace::TraceRecorder;
        // Serializes flips of the process-global fusion flag.
        static FLIP: std::sync::Mutex<()> = std::sync::Mutex::new(());

        fn run_traced(code: &[u8], input: Vec<u8>) -> (FrameResult, crate::trace::TxTrace, U256) {
            let mut state = State::new();
            let contract = Address::from_low_u64(0xc0de);
            state.deploy_code(contract, code.to_vec());
            let header = BlockHeader::default();
            let mut tracer = TraceRecorder::new();
            let caller = Address::from_low_u64(1);
            let res = {
                let mut evm = Evm::new(&mut state, &header, caller, U256::ONE, &mut tracer);
                evm.call(CallParams {
                    kind: CallKind::Call,
                    caller,
                    code_address: contract,
                    storage_address: contract,
                    value: U256::ZERO,
                    transfers_value: false,
                    input,
                    gas: 200_000,
                    is_static: false,
                    depth: 0,
                })
            };
            let slot1 = state.storage(contract, U256::ONE);
            (res, tracer.into_trace(), slot1)
        }

        // Selector prologue + one-arm dispatcher + fallback, handler does
        // SSTORE then a (fusible) PUSH1+SLOAD and returns the value.
        #[rustfmt::skip]
        let code = [
            0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c,                         // 0: selector load
            0x80, 0x63, 0xaa, 0xbb, 0xcc, 0xdd, 0x14, 0x61, 0x00, 21, 0x57, // 6: arm -> 21
            0x61, 0x00, 38, 0x56,                                       // 17: fallback -> 38
            0x5b,                                                       // 21: handler
            0x60, 0x07, 0x60, 0x01, 0x55,                               // SSTORE slot1 = 7
            0x60, 0x01, 0x54,                                           // PUSH1 1; SLOAD (fused)
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,             // return the word
            0x5b, 0x00,                                                 // 38: fallback STOP
        ];

        let _guard = FLIP.lock().unwrap();
        for input in [
            vec![0xaa, 0xbb, 0xcc, 0xdd],
            vec![0x11, 0x22, 0x33, 0x44],
            vec![],
        ] {
            crate::config::set_fusion_enabled(true);
            let (fused_res, fused_trace, fused_slot) = run_traced(&code, input.clone());
            crate::config::set_fusion_enabled(false);
            let (plain_res, plain_trace, plain_slot) = run_traced(&code, input.clone());
            crate::config::set_fusion_enabled(true);

            assert_eq!(fused_res.halt, plain_res.halt, "input {input:?}");
            assert_eq!(fused_res.gas_left, plain_res.gas_left, "input {input:?}");
            assert_eq!(fused_res.output, plain_res.output, "input {input:?}");
            assert_eq!(fused_slot, plain_slot, "input {input:?}");
            // The replayed step stream must be byte-for-byte the unfused one.
            assert_eq!(fused_trace.steps, plain_trace.steps, "input {input:?}");
            assert_eq!(fused_trace.storage, plain_trace.storage, "input {input:?}");
        }
        // Matching selector actually took the fused dispatcher path.
        let (res, _, slot) = run_traced(&code, vec![0xaa, 0xbb, 0xcc, 0xdd]);
        assert!(res.success());
        assert_eq!(U256::from_be_slice(&res.output), U256::from(7u64));
        assert_eq!(slot, U256::from(7u64));
    }

    #[test]
    fn gas_opcode_reports_remaining() {
        // GAS, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN
        let code = vec![0x5a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3];
        let gas = 100_000u64;
        let (res, _) = run_code(code, gas);
        assert!(res.success());
        let reported = U256::from_be_slice(&res.output).low_u64();
        assert_eq!(reported, gas - 2); // only GAS's own cost deducted so far
    }

    /// Empties this thread's `SHA3` memo, so a test sees only its own
    /// inputs.
    fn fresh_sha3_memo() {
        SHA3_MEMO.with(|memo| *memo.borrow_mut() = BoundedMemo::new(SHA3_MEMO_CAPACITY));
    }

    fn sha3_memo_len() -> usize {
        SHA3_MEMO.with(|memo| memo.borrow().len())
    }

    /// Whether this thread's memo holds `input`.
    fn memoized(input: &[u8]) -> bool {
        <&[u8; 64]>::try_from(input)
            .is_ok_and(|key| SHA3_MEMO.with(|memo| memo.borrow().get(key).is_some()))
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sha3_memo_matches_keccak_on_miss_and_hit() {
        fresh_sha3_memo();
        let mut rng = SplitMix64::new(0x5aa3);
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 136, 137] {
            let input = random_bytes(&mut rng, len);
            // The same key in the next mapping slot: the two inputs share
            // every byte but the last.
            let mut sibling = input.clone();
            if let Some(last) = sibling.last_mut() {
                *last ^= 1;
            }
            for bytes in [&input, &sibling] {
                let want = keccak256(bytes);
                assert_eq!(sha3(bytes), want, "len {len}, first lookup");
                assert_eq!(sha3(bytes), want, "len {len}, second lookup");
            }
            for bytes in [&input, &sibling] {
                assert_eq!(memoized(bytes), len == 64, "len {len}: memoized");
            }
        }
        assert_eq!(sha3_memo_len(), 2, "only the two 64-byte inputs");
    }

    #[test]
    fn sha3_memo_stays_bounded_past_capacity() {
        fresh_sha3_memo();
        let mut rng = SplitMix64::new(0xb0b0);
        let inputs: Vec<Vec<u8>> = (0..10 * SHA3_MEMO_CAPACITY)
            .map(|_| random_bytes(&mut rng, 64))
            .collect();
        for input in &inputs {
            assert_eq!(sha3(input), keccak256(input));
            assert!(sha3_memo_len() <= SHA3_MEMO_CAPACITY);
        }
        assert_eq!(sha3_memo_len(), SHA3_MEMO_CAPACITY);
        // FIFO: the last `capacity` inputs are held, every earlier one is
        // gone. Retained ones are re-hashed first, so the evicted ones'
        // re-insertion cannot push them out before they are checked.
        let (evicted, retained) = inputs.split_at(inputs.len() - SHA3_MEMO_CAPACITY);
        for input in retained {
            assert!(memoized(input));
            assert_eq!(sha3(input), keccak256(input), "retained input");
        }
        for input in evicted {
            assert!(!memoized(input));
            assert_eq!(sha3(input), keccak256(input), "evicted input");
        }
        assert_eq!(sha3_memo_len(), SHA3_MEMO_CAPACITY);
    }
}
