//! The commit lane's hand-off protocol: [`SlotTable`].

use mtpu::sched::DepGraph;
use std::collections::BinaryHeap;

/// Who has one transaction: nobody yet, a speculator running it, a
/// speculator's outcome waiting for the lane, or the lane.
#[derive(Debug, Clone)]
enum Slot<T> {
    Free,
    Held,
    Parked(T),
    Taken,
}

/// Whom a transition may have unblocked; the engine turns it into condvar
/// notifications.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wake {
    /// The lane, waiting on a held head.
    pub lane: bool,
    /// The speculators, waiting for ready work or the end of the block.
    pub speculators: bool,
}

/// The commit lane's hand-off protocol as a pure state machine (PAPER.md
/// S6's Scheduling Table, for host threads): every piece of state the lane
/// and the speculators decide on, with no threads, locks or condvars. Its
/// methods are the only transitions; the engine keeps it behind one mutex,
/// and `tests/parexec_protocol.rs` drives the same methods through every
/// interleaving of a lane and its speculators. A slot goes `Free → Held →
/// Parked → Taken`, or `Free → Taken`, so a transaction is first-executed
/// by exactly one thread. `T` is a speculator's outcome.
#[derive(Debug, Clone)]
pub struct SlotTable<T> {
    slots: Vec<Slot<T>>,
    /// DAG-ready transactions, highest index first: the further ahead of
    /// the lane a speculator works, the likelier its outcome is parked by
    /// the time the lane arrives. Entries the lane took are dropped when
    /// popped.
    ready: BinaryHeap<usize>,
    /// Per transaction, the DAG parents not yet committed.
    parents_left: Vec<usize>,
    /// The lane's head: every transaction below it is committed.
    cursor: usize,
    wake: Wake,
}

impl<T> SlotTable<T> {
    /// A table for a block whose dependencies are `dag`. Every root but
    /// transaction 0, the lane's first head, is ready.
    pub fn new(dag: &DepGraph) -> Self {
        let parents_left: Vec<usize> = (0..dag.len()).map(|i| dag.parents(i).len()).collect();
        SlotTable {
            slots: (0..dag.len()).map(|_| Slot::Free).collect(),
            ready: (1..dag.len()).filter(|&i| parents_left[i] == 0).collect(),
            parents_left,
            cursor: 0,
            wake: Wake::default(),
        }
    }

    /// Entries in the ready heap, including any the lane took.
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The lane takes its head: `None` while a speculator holds it, else
    /// the outcome a speculator parked for it, if any — the lane validates
    /// that, or executes in place without one. Panics on a head already
    /// taken (the lane takes each once, then commits).
    pub fn lane_head(&mut self) -> Option<Option<T>> {
        let slot = &mut self.slots[self.cursor];
        match std::mem::replace(slot, Slot::Taken) {
            Slot::Free => Some(None),
            Slot::Parked(outcome) => Some(Some(outcome)),
            Slot::Held => {
                *slot = Slot::Held;
                None
            }
            Slot::Taken => panic!("the lane takes each head once"),
        }
    }

    /// A speculator pops the highest ready transaction the lane has not
    /// taken and holds it. `None` while nothing is ready; `Some(None)`
    /// once the block is committed.
    pub fn claim(&mut self) -> Option<Option<usize>> {
        while let Some(i) = self.ready.pop() {
            if matches!(self.slots[i], Slot::Free) {
                self.slots[i] = Slot::Held;
                return Some(Some(i));
            }
        }
        (self.cursor == self.slots.len()).then_some(None)
    }

    /// The speculator holding `i` leaves its outcome for the lane. Panics
    /// when `i` is not held.
    pub fn park(&mut self, i: usize, outcome: T) {
        match std::mem::replace(&mut self.slots[i], Slot::Parked(outcome)) {
            Slot::Held => self.wake.lane |= i == self.cursor,
            _ => panic!("only the speculator holding a transaction parks it"),
        }
    }

    /// The lane commits its head and moves on. DAG children it makes
    /// ready become claimable, except the next head, which the lane runs
    /// itself, so a serial chain never leaves the lane. Panics when the
    /// head is not taken.
    pub fn commit(&mut self, dag: &DepGraph) {
        let i = self.cursor;
        assert!(matches!(self.slots[i], Slot::Taken), "commit before take");
        for &child in dag.children(i) {
            let child = child as usize;
            self.parents_left[child] -= 1;
            if self.parents_left[child] == 0 && child != i + 1 {
                self.ready.push(child);
                self.wake.speculators = true;
            }
        }
        self.cursor += 1;
        self.wake.speculators |= self.cursor == self.slots.len();
    }

    /// Whom the transitions since the last call may have unblocked.
    pub fn take_wake(&mut self) -> Wake {
        std::mem::take(&mut self.wake)
    }
}
