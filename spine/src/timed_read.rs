//! A counting, timing [`StateRead`] adapter: the traced pass reads the
//! flat store through it, so read cost is measured where reads happen.

use mtpu_evm::overlay::StateRead;
use mtpu_primitives::{Address, B256, U256};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Forwards every [`StateRead`] method to `inner`, counting calls and
/// summing nanoseconds per method. Shared by the executor's worker
/// threads, so the sums are thread time, not wall time.
#[derive(Debug)]
pub struct TimedRead<'a, B: StateRead> {
    inner: &'a B,
    calls: [AtomicU64; 9],
    ns: [AtomicU64; 9],
}

impl<'a, B: StateRead> TimedRead<'a, B> {
    pub fn new(inner: &'a B) -> Self {
        TimedRead {
            inner,
            calls: Default::default(),
            ns: Default::default(),
        }
    }

    fn timed<T>(&self, method: usize, f: impl FnOnce(&B) -> T) -> T {
        let started = Instant::now();
        let out = f(self.inner);
        // Statistics only: nothing is published through these counters.
        self.ns[method].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[method].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// `(calls, nanoseconds)` of method `i`, in trait order.
    pub fn method(&self, i: usize) -> (u64, u64) {
        (
            self.calls[i].load(Ordering::Relaxed),
            self.ns[i].load(Ordering::Relaxed),
        )
    }

    /// `(calls, nanoseconds)` over the value-returning reads (the two
    /// advisory hints excluded).
    pub fn reads(&self) -> (u64, u64) {
        (0..7)
            .map(|i| self.method(i))
            .fold((0, 0), |a, m| (a.0 + m.0, a.1 + m.1))
    }
}

impl<B: StateRead> StateRead for TimedRead<'_, B> {
    fn read_exists(&self, addr: Address) -> bool {
        self.timed(0, |b| b.read_exists(addr))
    }
    fn read_balance(&self, addr: Address) -> U256 {
        self.timed(1, |b| b.read_balance(addr))
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        self.timed(2, |b| b.read_nonce(addr))
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.timed(3, |b| b.read_code(addr))
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        self.timed(4, |b| b.read_code_hash(addr))
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.timed(5, |b| b.read_storage(addr, key))
    }
    fn read_storage_many(&self, addr: Address, keys: &[U256], out: &mut Vec<U256>) {
        self.timed(6, |b| b.read_storage_many(addr, keys, out))
    }
    fn hint_prefetch_storage(&self, addr: Address, keys: &[U256]) {
        self.timed(7, |b| b.hint_prefetch_storage(addr, keys))
    }
    fn hint_prefetch_account(&self, addr: Address) {
        self.timed(8, |b| b.hint_prefetch_account(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The [`StateRead`] methods, in trait order.
    const METHODS: [&str; 9] = [
        "read_exists",
        "read_balance",
        "read_nonce",
        "read_code",
        "read_code_hash",
        "read_storage",
        "read_storage_many",
        "hint_prefetch_storage",
        "hint_prefetch_account",
    ];

    /// Records which method was called with what, and answers with values
    /// derived from the arguments.
    #[derive(Default)]
    struct Probe {
        log: Mutex<Vec<String>>,
    }

    impl Probe {
        fn note(&self, s: String) {
            self.log.lock().unwrap().push(s);
        }
    }

    impl StateRead for Probe {
        fn read_exists(&self, a: Address) -> bool {
            self.note(format!("read_exists {a:?}"));
            true
        }
        fn read_balance(&self, a: Address) -> U256 {
            self.note(format!("read_balance {a:?}"));
            U256::from(7u64)
        }
        fn read_nonce(&self, a: Address) -> u64 {
            self.note(format!("read_nonce {a:?}"));
            9
        }
        fn read_code(&self, a: Address) -> Vec<u8> {
            self.note(format!("read_code {a:?}"));
            vec![1, 2, 3]
        }
        fn read_code_hash(&self, a: Address) -> B256 {
            self.note(format!("read_code_hash {a:?}"));
            B256::from([5u8; 32])
        }
        fn read_storage(&self, a: Address, k: U256) -> U256 {
            self.note(format!("read_storage {a:?} {k:?}"));
            k + U256::ONE
        }
        // Overridden with values the default (a loop over `read_storage`)
        // would not produce, so a wrapper that falls back to the default
        // is caught.
        fn read_storage_many(&self, a: Address, keys: &[U256], out: &mut Vec<U256>) {
            self.note(format!("read_storage_many {a:?} {}", keys.len()));
            out.clear();
            out.extend(keys.iter().map(|k| *k + U256::from(100u64)));
        }
        fn hint_prefetch_storage(&self, a: Address, keys: &[U256]) {
            self.note(format!("hint_prefetch_storage {a:?} {}", keys.len()));
        }
        fn hint_prefetch_account(&self, a: Address) {
            self.note(format!("hint_prefetch_account {a:?}"));
        }
    }

    #[test]
    fn forwards_every_method_and_counts_it() {
        let probe = Probe::default();
        let timed = TimedRead::new(&probe);
        let a = Address::from_low_u64(0xabc);
        let keys = [U256::from(1u64), U256::from(2u64)];

        assert!(timed.read_exists(a));
        assert_eq!(timed.read_balance(a), U256::from(7u64));
        assert_eq!(timed.read_nonce(a), 9);
        assert_eq!(timed.read_code(a), vec![1, 2, 3]);
        assert_eq!(timed.read_code_hash(a), B256::from([5u8; 32]));
        assert_eq!(timed.read_storage(a, keys[0]), U256::from(2u64));
        let mut out = vec![U256::ZERO; 5];
        timed.read_storage_many(a, &keys, &mut out);
        assert_eq!(out, vec![U256::from(101u64), U256::from(102u64)]);
        timed.hint_prefetch_storage(a, &keys);
        timed.hint_prefetch_account(a);

        let log = probe.log.lock().unwrap();
        let called: Vec<&str> = log.iter().map(|l| l.split(' ').next().unwrap()).collect();
        assert_eq!(called, METHODS, "one inner call per method, in order");
        assert!(log.iter().all(|l| l.contains(&format!("{a:?}"))));
        for (i, name) in METHODS.iter().enumerate() {
            assert_eq!(timed.method(i).0, 1, "{name} counted once");
        }
        assert_eq!(timed.reads().0, 7, "hints are not reads");
    }
}
