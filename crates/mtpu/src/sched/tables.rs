//! The Scheduling Table and Transaction Table of Fig. 6.
//!
//! The candidate window holds up to *m* transactions staged in main
//! memory by the CPU. Each PU row of the Scheduling Table carries two
//! m-bit vectors: `De` (candidate *i* depends on the transaction this PU
//! is executing) and `Re` (candidate *i* is redundant with it). The
//! paper adds a valid bit that avoids dirty reads during asynchronous
//! CPU updates; this sequential model has no such window (refill
//! precedes every row update, and every row is rewritten before each
//! selection), so a finished PU's row is simply an all-zero `De`.
//! The Transaction Table tracks per-candidate locks (L) and priorities
//! (V, the node value of the composite DAG).

/// Maximum candidate-window size (bit vectors are one machine word).
pub const MAX_CANDIDATES: usize = 64;

/// One PU's row of the Scheduling Table.
#[derive(Debug, Clone, Copy, Default)]
pub struct PuRow {
    /// Dependency bits: bit *i* set ⇔ candidate *i* depends on the
    /// transaction this PU is executing.
    pub de: u64,
    /// Redundancy bits: bit *i* set ⇔ candidate *i* calls the same
    /// contract as the transaction this PU is executing.
    pub re: u64,
}

/// The Scheduling Table: one row per PU.
#[derive(Debug, Clone)]
pub struct SchedulingTable {
    rows: Vec<PuRow>,
}

impl SchedulingTable {
    /// A table for `pu_count` processing units.
    pub fn new(pu_count: usize) -> Self {
        SchedulingTable {
            rows: vec![PuRow::default(); pu_count],
        }
    }

    /// Updates PU `pu`'s row (CPU-side operation ③ of Fig. 6).
    pub fn set_row(&mut self, pu: usize, de: u64, re: u64) {
        self.rows[pu] = PuRow { de, re };
    }

    /// The row of PU `pu`.
    pub fn row(&self, pu: usize) -> PuRow {
        self.rows[pu]
    }

    /// Candidates free of dependencies on *any* running transaction —
    /// step ① of the selection flow: the complement of the OR of all
    /// PUs' `De` vectors (an idle PU's is zero).
    pub fn selectable_mask(&self) -> u64 {
        !self.rows.iter().fold(0, |blocked, r| blocked | r.de)
    }
}

/// The Transaction Table: locks and priorities of the candidate window.
#[derive(Debug, Clone)]
pub struct TransactionTable {
    lock: u64,
    v: Vec<u32>,
    /// Block position of the staged transaction (the composite DAG's
    /// priority order); used to break ties toward older transactions.
    order: Vec<u32>,
    occupied: u64,
}

impl TransactionTable {
    /// A table with `m` candidate slots.
    ///
    /// # Panics
    ///
    /// Panics when `m > 64` (bit vectors are one word).
    pub fn new(m: usize) -> Self {
        assert!(m <= MAX_CANDIDATES, "candidate window exceeds one word");
        TransactionTable {
            lock: 0,
            v: vec![0; m],
            order: vec![u32::MAX; m],
            occupied: 0,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.v.len()
    }

    /// Marks slot `i` occupied with priority `v` and block position
    /// `order`.
    pub fn fill(&mut self, i: usize, v: u32, order: u32) {
        self.occupied |= 1 << i;
        self.lock &= !(1 << i);
        self.v[i] = v;
        self.order[i] = order;
    }

    /// Clears slot `i` (transaction taken and read complete).
    pub fn clear(&mut self, i: usize) {
        self.occupied &= !(1 << i);
        self.lock &= !(1 << i);
        self.v[i] = 0;
        self.order[i] = u32::MAX;
    }

    /// Attempts to lock slot `i` for exclusive read; `false` when already
    /// locked or empty.
    pub fn try_lock(&mut self, i: usize) -> bool {
        let bit = 1u64 << i;
        if self.occupied & bit == 0 || self.lock & bit != 0 {
            return false;
        }
        self.lock |= bit;
        true
    }

    /// Occupied-and-unlocked slots as a bit mask.
    pub fn available_mask(&self) -> u64 {
        self.occupied & !self.lock
    }

    /// Priority of slot `i`.
    pub fn priority(&self, i: usize) -> u32 {
        self.v[i]
    }

    /// Selection step ②: among `mask`-allowed available slots, prefer a
    /// redundancy hit (`re` bit), else the highest V; ties break to the
    /// oldest transaction (block order — the composite DAG's priority
    /// order). Returns the chosen slot.
    pub fn select(&self, mask: u64, re: u64) -> Option<usize> {
        let avail = self.available_mask() & mask;
        if avail == 0 {
            return None;
        }
        let redundant = avail & re;
        if redundant != 0 {
            return (0..self.slots())
                .filter(|&i| redundant & (1 << i) != 0)
                .min_by_key(|&i| self.order[i]);
        }
        (0..self.slots())
            .filter(|&i| avail & (1 << i) != 0)
            .min_by_key(|&i| (std::cmp::Reverse(self.v[i]), self.order[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectable_mask_ors_every_row() {
        let mut t = SchedulingTable::new(3);
        t.set_row(0, 0b00100, 0);
        t.set_row(1, 0b00000, 0);
        t.set_row(2, 0b11000, 0);
        // Blocked = 0b11100 -> selectable low bits 0b...00011.
        assert_eq!(t.selectable_mask() & 0b11111, 0b00011);
        t.set_row(2, 0, 0); // its transaction completed
        assert_eq!(t.selectable_mask() & 0b11111, 0b11011);
    }

    #[test]
    fn paper_fig6_walkthrough() {
        // PU0 finishes T0; its row keeps only Re, which marks T2 (slot 0)
        // as redundant with the contract PU0 still holds. PU1 runs T1 (De
        // 00100: T4... encoded per slot), PU2 runs Ta (De 00000).
        // Candidates: slots 0..4 = T2,T3,T4,Tb,Tc.
        let re = 0b00101;
        let mut st = SchedulingTable::new(3);
        st.set_row(0, 0, re);
        st.set_row(1, 0b00100, 0); // T4 depends on T1
        st.set_row(2, 0b00000, 0);
        let mask = st.selectable_mask();
        // Slots {0,1,3,4} = T2,T3,Tb,Tc selectable.
        assert_eq!(mask & 0b11111, 0b11011);

        let mut tt = TransactionTable::new(5);
        for (i, v) in [(0, 3u32), (1, 3), (2, 3), (3, 1), (4, 2)] {
            tt.fill(i, v, i as u32);
        }
        // PU0's Re picks the redundant T2 first.
        assert_eq!(tt.select(mask, re), Some(0));
        // Without redundancy, the max-V candidate wins.
        assert_eq!(tt.select(mask, 0), Some(0)); // V=3, lowest index
        tt.clear(0);
        tt.clear(1);
        assert_eq!(tt.select(mask, 0), Some(4)); // V=2 beats slot 3's V=1
    }

    #[test]
    fn locks_are_exclusive() {
        let mut tt = TransactionTable::new(4);
        tt.fill(2, 5, 0);
        assert!(tt.try_lock(2));
        assert!(!tt.try_lock(2), "double lock must fail");
        assert_eq!(tt.select(!0, 0), None, "locked slot is unavailable");
        tt.clear(2);
        assert!(!tt.try_lock(2), "empty slot cannot be locked");
    }

    #[test]
    #[should_panic(expected = "one word")]
    fn window_size_bounded() {
        TransactionTable::new(65);
    }
}
