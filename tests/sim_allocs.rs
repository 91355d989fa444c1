//! Allocation counts of the timing model's per-step paths, measured with
//! a counting global allocator (this test binary only):
//!
//! * the fill unit's `LineBuilder::try_add` allocates nothing;
//! * `ContractTable::transforms_for` followed by
//!   `TxJob::build_with_override` allocates per job, not per step: a
//!   200-step and a 2 000-step trace of the same shape cost the same
//!   number of allocations.

use mtpu_repro::evm::opcode::Opcode;
use mtpu_repro::evm::trace::{CallKind, FrameInfo, StorageAccess, TraceStep, TxTrace};
use mtpu_repro::mtpu::dbcache::LineBuilder;
use mtpu_repro::mtpu::hotspot::ContractTable;
use mtpu_repro::mtpu::pu::TxJob;
use mtpu_repro::mtpu::stream::MicroOp;
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::primitives::{Address, B256, U256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting allocations made by the current thread (tests run
/// on parallel threads; each counts only its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s, as `realloc`'s contract requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn fill_unit_allocates_nothing() {
    // Every opcode, plain and with a folded constant operand, through
    // builders with and without forwarding; a rejected op opens the next
    // line as in the pipeline.
    let ops: Vec<Opcode> = (0..=u8::MAX).filter_map(Opcode::from_u8).collect();
    let mut added = 0;
    for forwarding in [true, false] {
        let (mut b, made) = allocations(|| LineBuilder::new(B256::ZERO, forwarding));
        assert_eq!(made, 0, "LineBuilder::new allocated");
        for round in 0..4u32 {
            for (k, &op) in ops.iter().enumerate() {
                let u = MicroOp {
                    step: k as u32,
                    frame: 0,
                    pc: round * 1000 + k as u32,
                    op,
                    const_operand: (k as u32 + round).is_multiple_of(3),
                    insn_count: 1,
                    prefetched: false,
                };
                let (first, made) = allocations(|| b.try_add(&u));
                assert_eq!(made, 0, "try_add({op}) allocated");
                if first.is_err() {
                    b = LineBuilder::new(B256::ZERO, forwarding);
                    let (_, made) = allocations(|| b.try_add(&u));
                    assert_eq!(made, 0, "try_add({op}) on a fresh line allocated");
                }
                added += 1;
            }
        }
    }
    assert!(added > 1000);
}

/// Code and a `steps`-step trace of a hotspot-shaped call: a selector
/// dispatcher, then a loop body that reads a constant slot, adds to it,
/// and stores it back, repeated until the trace is `steps` long.
fn looped_call(steps: usize) -> (Vec<u8>, TxTrace) {
    let code: Vec<u8> = vec![
        0x60, 0x00, // 0: PUSH1 0
        0x35, // 2: CALLDATALOAD
        0x60, 0xe0, // 3: PUSH1 0xe0
        0x1c, // 5: SHR
        0x63, 0xaa, 0xbb, 0xcc, 0xdd, // 6: PUSH4 selector
        0x14, // 11: EQ
        0x61, 0x00, 0x10, // 12: PUSH2 16
        0x57, // 15: JUMPI
        0x5b, // 16: JUMPDEST (loop head)
        0x60, 0x07, // 17: PUSH1 7
        0x54, // 19: SLOAD
        0x60, 0x01, // 20: PUSH1 1
        0x01, // 22: ADD
        0x60, 0x07, // 23: PUSH1 7
        0x55, // 25: SSTORE
        0x61, 0x00, 0x10, // 26: PUSH2 16
        0x56, // 29: JUMP
    ];
    let head: [u32; 8] = [0, 2, 3, 5, 6, 11, 12, 15];
    let body: [u32; 9] = [16, 17, 19, 20, 22, 23, 25, 26, 29];
    let address = Address::from_low_u64(0xc0de);
    let mut trace = TxTrace {
        frames: vec![FrameInfo {
            depth: 0,
            kind: CallKind::Call,
            code_address: address,
            storage_address: address,
            code_hash: B256::keccak(&code),
            code_len: code.len() as u32,
            input_len: 36,
            selector: Some([0xaa, 0xbb, 0xcc, 0xdd]),
        }],
        gas_used: 50_000,
        success: true,
        ..Default::default()
    };
    let pcs = head.iter().chain(body.iter().cycle()).take(steps);
    for &pc in pcs {
        let op = code[pc as usize];
        if op == 0x54 || op == 0x55 {
            trace.storage.push(StorageAccess {
                step: trace.steps.len() as u32,
                address,
                key: U256::from(7u64),
                write: op == 0x55,
            });
        }
        trace.steps.push(TraceStep { frame: 0, pc, op });
    }
    (code, trace)
}

#[test]
fn hotspot_job_build_allocates_per_job_not_per_step() {
    let (code, short) = looped_call(200);
    let (_, long) = looped_call(2_000);
    assert_eq!((short.steps.len(), long.steps.len()), (200, 2_000));
    let mut table = ContractTable::new();
    table.learn(&short, &code);
    let cfg = MtpuConfig {
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let build = |trace: &TxTrace| {
        allocations(|| {
            let (tr, loaded) = table.transforms_for(trace);
            TxJob::build_with_override(trace, &cfg, &tr, loaded)
        })
    };
    let (short_job, short_allocs) = build(&short);
    let (long_job, long_allocs) = build(&long);
    // The transforms applied: the dispatcher is pre-executed and the
    // loop's SLOAD prefetched.
    assert!(short_job.stream_stats.skipped_preexec > 0);
    assert!(long_job.stream.iter().any(|u| u.prefetched));
    assert_eq!(short_allocs, long_allocs, "allocations grow with the trace");
}
