//! Core primitive types for the MTPU reproduction: 256-bit machine words,
//! Keccak-256, RLP, and fixed-size byte newtypes.
//!
//! Everything in this crate is implemented from scratch (no external
//! dependencies): the EVM substrate and the accelerator model sit on top of
//! exactly these definitions.
//!
//! ```
//! use mtpu_primitives::{keccak256, Address, U256};
//!
//! let slot = U256::ZERO;
//! let holder = Address::from_low_u64(7);
//! // Solidity mapping slot: keccak256(key . slot)
//! let mut buf = [0u8; 64];
//! buf[..32].copy_from_slice(&holder.to_u256().to_be_bytes());
//! buf[32..].copy_from_slice(&slot.to_be_bytes());
//! let _mapping_slot = U256::from_be_bytes(keccak256(&buf));
//! ```

pub mod hex;
pub mod keccak;
pub mod map;
pub mod prng;
pub mod rlp;
mod types;
mod u256;

pub use keccak::keccak256;
pub use prng::SplitMix64;
pub use types::{Address, ParseBytesError, B256, EMPTY_CODE_HASH};
pub use u256::{ParseU256Error, U256};

#[cfg(test)]
mod randomized_tests {
    //! Randomized algebraic properties of U256/RLP/Keccak, driven by the
    //! in-repo [`SplitMix64`] generator (deterministic, offline — the
    //! former `proptest` suite recast so the tier-1 build needs no
    //! external crates).

    use crate::{SplitMix64, U256};

    const CASES: usize = 256;

    fn arb_u256(rng: &mut SplitMix64) -> U256 {
        // Mix full-width words with small/extreme values so carry and
        // boundary paths are all exercised.
        match rng.random_range(0..6) {
            0 => U256::from(rng.next_u64()),
            1 => U256::from(rng.next_u64() as u128 | ((rng.next_u64() as u128) << 64)),
            2 => U256::ZERO,
            3 => U256::MAX,
            _ => U256::from_limbs([
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ]),
        }
    }

    #[test]
    fn add_commutes_and_associates() {
        let mut rng = SplitMix64::new(0xA11CE);
        for _ in 0..CASES {
            let (a, b, c) = (arb_u256(&mut rng), arb_u256(&mut rng), arb_u256(&mut rng));
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!(a + b - b, a);
        }
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let mut rng = SplitMix64::new(0xB0B);
        for _ in 0..CASES {
            let (a, b, c) = (arb_u256(&mut rng), arb_u256(&mut rng), arb_u256(&mut rng));
            assert_eq!(a * b, b * a);
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let mut rng = SplitMix64::new(0xD1);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng);
            let b = arb_u256(&mut rng);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(b).unwrap();
            assert!(r < b);
            assert_eq!(q * b + r, a);
        }
    }

    #[test]
    fn div_matches_u128() {
        let mut rng = SplitMix64::new(0xD2);
        for _ in 0..CASES {
            let a = rng.next_u64() as u128 | ((rng.next_u64() as u128) << 64);
            let b = (rng.next_u64() as u128 | ((rng.next_u64() as u128) << 64)).max(1);
            let (q, r) = U256::from(a).div_rem(U256::from(b)).unwrap();
            assert_eq!(q, U256::from(a / b));
            assert_eq!(r, U256::from(a % b));
        }
    }

    #[test]
    fn mulmod_and_addmod_match_naive_small() {
        let mut rng = SplitMix64::new(0xC3);
        for _ in 0..CASES {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let m = rng.next_u64().max(1);
            let mul = ((a as u128) * (b as u128) % (m as u128)) as u64;
            assert_eq!(
                U256::from(a).mulmod(U256::from(b), U256::from(m)),
                U256::from(mul)
            );
            let add = ((a as u128 + b as u128) % m as u128) as u64;
            assert_eq!(
                U256::from(a).addmod(U256::from(b), U256::from(m)),
                U256::from(add)
            );
        }
    }

    #[test]
    fn addmod_result_in_range() {
        let mut rng = SplitMix64::new(0xC4);
        for _ in 0..CASES {
            let (a, b, m) = (arb_u256(&mut rng), arb_u256(&mut rng), arb_u256(&mut rng));
            if m.is_zero() {
                continue;
            }
            assert!(a.addmod(b, m) < m);
        }
    }

    #[test]
    fn shifts_compose() {
        let mut rng = SplitMix64::new(0x5E1F);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng);
            let s = rng.random_range(0..256) as usize;
            assert_eq!((a >> s) << s, a & (U256::MAX << s));
            assert_eq!((a << s) >> s, a & (U256::MAX >> s));
        }
    }

    #[test]
    fn sar_matches_shr_for_nonnegative() {
        let mut rng = SplitMix64::new(0x5A);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng) & !U256::SIGN_BIT;
            let s = U256::from(rng.random_range(0..256));
            assert_eq!(a.evm_sar(s), a.evm_shr(s));
        }
    }

    #[test]
    fn twos_neg_is_involution_and_sdiv_smod_reconstruct() {
        let mut rng = SplitMix64::new(0x51);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng);
            assert_eq!(a.twos_neg().twos_neg(), a);
            let b = arb_u256(&mut rng);
            if b.is_zero() {
                continue;
            }
            // a == sdiv(a,b) * b + smod(a,b)  (all wrapping)
            let q = a.evm_sdiv(b);
            let r = a.evm_smod(b);
            assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
        }
    }

    #[test]
    fn encodings_round_trip() {
        let mut rng = SplitMix64::new(0xE0);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng);
            assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
            assert_eq!(U256::from_str_dec(&a.to_string()).unwrap(), a);
            assert_eq!(U256::from_str_hex(&format!("{a:x}")).unwrap(), a);
        }
    }

    #[test]
    fn signextend_idempotent() {
        let mut rng = SplitMix64::new(0x51E);
        for _ in 0..CASES {
            let a = arb_u256(&mut rng);
            let i = U256::from(rng.random_range(0..32));
            let once = a.signextend(i);
            assert_eq!(once.signextend(i), once);
        }
    }

    #[test]
    fn rlp_round_trip_bytes() {
        let mut rng = SplitMix64::new(0x12F);
        for _ in 0..128 {
            let len = rng.random_range(0..200) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let item = crate::rlp::Item::bytes(data);
            let enc = crate::rlp::encode(&item);
            assert_eq!(crate::rlp::decode(&enc).unwrap(), item);
        }
    }

    #[test]
    fn keccak_incremental_matches_oneshot() {
        let mut rng = SplitMix64::new(0xCEC);
        for _ in 0..64 {
            let len = rng.random_range(0..600) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let split = if len == 0 {
                0
            } else {
                rng.random_range(0..len as u64 + 1) as usize
            };
            let mut h = crate::keccak::Keccak256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crate::keccak256(&data));
        }
    }
}
