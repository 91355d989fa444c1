//! A 256-bit unsigned integer with the exact arithmetic semantics the EVM
//! requires (wrapping ring arithmetic, zero-returning division, two's
//! complement signed views).
//!
//! The representation is four little-endian `u64` limbs. All EVM-visible
//! operations are implemented from scratch; the only helpers borrowed from
//! the standard library are `u64`/`u128` primitives.

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use core::iter::{Product, Sum};
use core::ops::{
    Add, AddAssign, BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Div, Mul,
    MulAssign, Not, Rem, Shl, Shr, Sub, SubAssign,
};
use core::str::FromStr;

/// Number of 64-bit limbs in a [`U256`].
pub const LIMBS: usize = 4;

/// 256-bit unsigned integer (the EVM machine word).
///
/// Arithmetic via the `std::ops` traits is **wrapping**, matching EVM
/// semantics, except [`Div`] and [`Rem`] which panic on a zero divisor like
/// the built-in integers do; use [`U256::evm_div`] / [`U256::evm_rem`] for
/// the EVM's zero-returning variants.
///
/// ```
/// use mtpu_primitives::U256;
/// let a = U256::MAX;
/// assert_eq!(a + U256::ONE, U256::ZERO); // wrapping
/// assert_eq!(U256::from(7u64).evm_div(U256::ZERO), U256::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U256(pub(crate) [u64; LIMBS]);

/// The four limbs alone: a derived `Hash` would first write the array's
/// constant length, one wasted hasher step per map probe.
impl Hash for U256 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for limb in self.0 {
            state.write_u64(limb);
        }
    }
}

impl U256 {
    /// The additive identity.
    pub const ZERO: U256 = U256([0; LIMBS]);
    /// The multiplicative identity.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; LIMBS]);
    /// The most significant bit, `2^255` (sign bit of the signed view).
    pub const SIGN_BIT: U256 = U256([0, 0, 0, 1 << 63]);

    /// Creates a value from raw little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        U256(limbs)
    }

    /// Returns the raw little-endian limbs.
    #[inline]
    pub const fn into_limbs(self) -> [u64; LIMBS] {
        self.0
    }

    /// Borrows the raw little-endian limbs.
    #[inline]
    pub const fn as_limbs(&self) -> &[u64; LIMBS] {
        &self.0
    }

    /// `true` if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Interprets the value as a boolean (EVM truthiness).
    #[inline]
    pub const fn as_bool(&self) -> bool {
        !self.is_zero()
    }

    /// The low 64 bits, discarding the rest.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// The low 128 bits, discarding the rest.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Converts to `u64` if the value fits.
    #[inline]
    pub fn try_to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Converts to `usize`, saturating at `usize::MAX` when out of range.
    ///
    /// Handy for memory offsets where the EVM would run out of gas long
    /// before a saturated value is reachable.
    #[inline]
    pub fn saturating_to_usize(&self) -> usize {
        match self.try_to_u64() {
            Some(v) if v <= usize::MAX as u64 => v as usize,
            _ => usize::MAX,
        }
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..LIMBS).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Number of leading zero bits.
    #[inline]
    pub fn leading_zeros(&self) -> u32 {
        256 - self.bits()
    }

    /// Value of bit `i` (little-endian bit order); `false` when `i >= 256`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of one bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|l| l.count_ones()).sum()
    }

    /// Parses a big-endian byte slice of at most 32 bytes.
    ///
    /// Shorter slices are zero-extended on the left, exactly like EVM
    /// calldata/stack conversions.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 32`.
    pub fn from_be_slice(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256::from_be_slice: more than 32 bytes");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Self::from_be_bytes(buf)
    }

    /// Converts from a 32-byte big-endian array.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; LIMBS];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - (i + 1) * 8;
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[start..start + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Converts to a 32-byte big-endian array.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..LIMBS {
            let start = 32 - (i + 1) * 8;
            out[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Number of bytes in the minimal big-endian representation
    /// (0 for zero) — the length [`U256::to_be_bytes_trimmed`] would
    /// allocate, without allocating.
    pub fn byte_len(&self) -> usize {
        (self.bits() as usize).div_ceil(8)
    }

    /// Writes the full 32-byte big-endian form into `buf` and returns
    /// the offset of the first significant byte, so `&buf[offset..]` is
    /// the minimal (RLP-canonical) representation with no allocation.
    pub fn write_be_into(self, buf: &mut [u8; 32]) -> usize {
        for i in 0..LIMBS {
            let start = 32 - (i + 1) * 8;
            buf[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        32 - self.byte_len()
    }

    /// Minimal big-endian byte representation (empty for zero), as used by
    /// RLP encoding.
    pub fn to_be_bytes_trimmed(self) -> Vec<u8> {
        let mut full = [0u8; 32];
        let first = self.write_be_into(&mut full);
        full[first..].to_vec()
    }

    /// Wrapping addition, with carry-out flag.
    #[allow(clippy::needless_range_loop)] // limb i of both operands
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = false;
        for i in 0..LIMBS {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction, with borrow-out flag.
    #[allow(clippy::needless_range_loop)] // limb i of both operands
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping multiplication, with overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let wide = self.mul_wide(rhs);
        let overflow = wide[4] | wide[5] | wide[6] | wide[7] != 0;
        (U256([wide[0], wide[1], wide[2], wide[3]]), overflow)
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction: `None` on underflow.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked multiplication: `None` on overflow.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).unwrap_or(U256::MAX)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Wrapping addition (same as `+`).
    #[inline]
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction (same as `-`).
    #[inline]
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Wrapping multiplication (same as `*`).
    #[inline]
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }

    /// Full 512-bit product as eight little-endian limbs.
    pub fn mul_wide(self, rhs: U256) -> [u64; 2 * LIMBS] {
        let mut out = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry: u128 = 0;
            for j in 0..LIMBS {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        out
    }

    /// Quotient and remainder.
    ///
    /// Returns `None` when `divisor` is zero.
    pub fn div_rem(self, divisor: U256) -> Option<(U256, U256)> {
        if divisor.is_zero() {
            return None;
        }
        if self < divisor {
            return Some((U256::ZERO, self));
        }
        // Fast path: both fit in u128.
        if self.0[2] | self.0[3] | divisor.0[2] | divisor.0[3] == 0 {
            let a = self.low_u128();
            let b = divisor.low_u128();
            return Some((U256::from(a / b), U256::from(a % b)));
        }
        let (q, r) = div_rem_knuth(&self.0, &divisor.0);
        Some((U256(q), U256(r)))
    }

    /// EVM `DIV`: division where `x / 0 == 0`.
    #[inline]
    pub fn evm_div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).map(|(q, _)| q).unwrap_or(U256::ZERO)
    }

    /// EVM `MOD`: remainder where `x % 0 == 0`.
    #[inline]
    pub fn evm_rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).map(|(_, r)| r).unwrap_or(U256::ZERO)
    }

    /// `true` if the signed (two's complement) view is negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.0[3] >> 63 == 1
    }

    /// Two's complement negation.
    #[inline]
    pub fn twos_neg(self) -> U256 {
        (!self).wrapping_add(U256::ONE)
    }

    /// Absolute value of the signed view (as an unsigned magnitude).
    #[inline]
    pub fn signed_abs(self) -> U256 {
        if self.is_negative() {
            self.twos_neg()
        } else {
            self
        }
    }

    /// EVM `SDIV`: signed division, truncating toward zero, `x / 0 == 0`,
    /// and `MIN / -1 == MIN` (wraps).
    pub fn evm_sdiv(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        if self == U256::SIGN_BIT && rhs == U256::MAX {
            return U256::SIGN_BIT;
        }
        let q = self.signed_abs().evm_div(rhs.signed_abs());
        if self.is_negative() != rhs.is_negative() {
            q.twos_neg()
        } else {
            q
        }
    }

    /// EVM `SMOD`: signed remainder taking the sign of the dividend,
    /// `x % 0 == 0`.
    pub fn evm_smod(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let r = self.signed_abs().evm_rem(rhs.signed_abs());
        if self.is_negative() {
            r.twos_neg()
        } else {
            r
        }
    }

    /// EVM `ADDMOD`: `(self + rhs) % modulus` computed over 512 bits,
    /// `x % 0 == 0`.
    pub fn addmod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = self.overflowing_add(rhs);
        if !carry {
            return sum.evm_rem(modulus);
        }
        // 257-bit sum: reduce [sum, 1] mod modulus via wide remainder.
        let wide = [sum.0[0], sum.0[1], sum.0[2], sum.0[3], 1, 0, 0, 0];
        U256(rem_wide(&wide, &modulus.0))
    }

    /// EVM `MULMOD`: `(self * rhs) % modulus` computed over 512 bits,
    /// `x % 0 == 0`.
    pub fn mulmod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        let wide = self.mul_wide(rhs);
        U256(rem_wide(&wide, &modulus.0))
    }

    /// EVM `EXP`: wrapping exponentiation by squaring.
    pub fn wrapping_pow(self, mut exp: U256) -> U256 {
        let mut base = self;
        let mut acc = U256::ONE;
        while !exp.is_zero() {
            if exp.bit(0) {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            exp = exp >> 1;
        }
        acc
    }

    /// EVM `SIGNEXTEND`: sign-extends the low `byte_index + 1` bytes.
    ///
    /// When `byte_index >= 31` the value is returned unchanged.
    pub fn signextend(self, byte_index: U256) -> U256 {
        let Some(i) = byte_index.try_to_u64() else {
            return self;
        };
        if i >= 31 {
            return self;
        }
        let bit = (i as usize) * 8 + 7;
        let mask = (U256::ONE << (bit + 1)).wrapping_sub(U256::ONE);
        if self.bit(bit) {
            self | !mask
        } else {
            self & mask
        }
    }

    /// EVM `BYTE`: byte `i` of the big-endian representation (0 = most
    /// significant); zero when `i >= 32`.
    pub fn byte_be(self, i: U256) -> U256 {
        match i.try_to_u64() {
            Some(n) if n < 32 => U256::from(self.to_be_bytes()[n as usize] as u64),
            _ => U256::ZERO,
        }
    }

    /// EVM `SHL` with a 256-bit shift amount (result is zero for shifts
    /// ≥ 256).
    pub fn evm_shl(self, shift: U256) -> U256 {
        match shift.try_to_u64() {
            Some(s) if s < 256 => self << s as usize,
            _ => U256::ZERO,
        }
    }

    /// EVM `SHR` (logical) with a 256-bit shift amount.
    pub fn evm_shr(self, shift: U256) -> U256 {
        match shift.try_to_u64() {
            Some(s) if s < 256 => self >> s as usize,
            _ => U256::ZERO,
        }
    }

    /// EVM `SAR` (arithmetic shift right) with a 256-bit shift amount.
    pub fn evm_sar(self, shift: U256) -> U256 {
        let neg = self.is_negative();
        match shift.try_to_u64() {
            Some(s) if s < 256 => {
                let shifted = self >> s as usize;
                if neg && s > 0 {
                    shifted | (U256::MAX << (256 - s as usize))
                } else {
                    shifted
                }
            }
            _ => {
                if neg {
                    U256::MAX
                } else {
                    U256::ZERO
                }
            }
        }
    }

    /// Signed (two's complement) comparison.
    pub fn signed_cmp(&self, other: &U256) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.cmp(other),
        }
    }

    /// Parses a hexadecimal string with optional `0x` prefix.
    pub fn from_str_hex(s: &str) -> Result<Self, ParseU256Error> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return Err(ParseU256Error);
        }
        let mut v = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseU256Error)? as u64;
            v = (v << 4) | U256::from(d);
        }
        Ok(v)
    }

    /// Parses a decimal string.
    pub fn from_str_dec(s: &str) -> Result<Self, ParseU256Error> {
        if s.is_empty() || s.len() > 78 {
            return Err(ParseU256Error);
        }
        let ten = U256::from(10u64);
        let mut v = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseU256Error)? as u64;
            let (m, o1) = v.overflowing_mul(ten);
            let (a, o2) = m.overflowing_add(U256::from(d));
            if o1 || o2 {
                return Err(ParseU256Error);
            }
            v = a;
        }
        Ok(v)
    }
}

/// Error returned when parsing a [`U256`] from a string fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseU256Error;

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid 256-bit integer literal")
    }
}

impl std::error::Error for ParseU256Error {}

impl FromStr for U256 {
    type Err = ParseU256Error;

    /// Accepts `0x`-prefixed hex or plain decimal.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x") {
            U256::from_str_hex(hex)
        } else {
            U256::from_str_dec(s)
        }
    }
}

// ---------------------------------------------------------------------------
// Long division helpers (Knuth algorithm D on little-endian limb slices).
// ---------------------------------------------------------------------------

fn limbs_bits(l: &[u64]) -> u32 {
    for i in (0..l.len()).rev() {
        if l[i] != 0 {
            return (i as u32) * 64 + 64 - l[i].leading_zeros();
        }
    }
    0
}

fn limbs_cmp(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// Shift-left an arbitrary-width little-endian limb vector by `s < 64` bits.
fn limbs_shl_small(l: &[u64], s: u32, out: &mut [u64]) {
    debug_assert!(s < 64);
    debug_assert!(out.len() >= l.len());
    let mut carry = 0u64;
    for i in 0..l.len() {
        out[i] = (l[i] << s) | carry;
        carry = if s == 0 { 0 } else { l[i] >> (64 - s) };
    }
    if out.len() > l.len() {
        out[l.len()] = carry;
        for o in out[l.len() + 1..].iter_mut() {
            *o = 0;
        }
    } else {
        debug_assert_eq!(carry, 0);
    }
}

/// Shift-right by `s < 64` bits.
fn limbs_shr_small(l: &mut [u64], s: u32) {
    debug_assert!(s < 64);
    if s == 0 {
        return;
    }
    let mut carry = 0u64;
    for i in (0..l.len()).rev() {
        let new_carry = l[i] << (64 - s);
        l[i] = (l[i] >> s) | carry;
        carry = new_carry;
    }
}

/// Core of Knuth algorithm D: divides `num` (n+m limbs, normalized) by
/// `den` (n limbs, top limb has high bit set). `num` must carry one extra
/// high limb of working space. On return `num[..n]` holds the remainder and
/// `quot` the quotient.
fn div_knuth_normalized(num: &mut [u64], den: &[u64], quot: &mut [u64]) {
    let n = den.len();
    debug_assert!(n >= 2, "single-limb divisors take the short path");
    debug_assert!(den[n - 1] >> 63 == 1, "divisor must be normalized");
    let m = num.len() - n - 1;
    debug_assert!(quot.len() > m);

    for j in (0..=m).rev() {
        // Estimate q_hat = (num[j+n]*B + num[j+n-1]) / den[n-1].
        let top = ((num[j + n] as u128) << 64) | num[j + n - 1] as u128;
        let mut q_hat = top / den[n - 1] as u128;
        let mut r_hat = top % den[n - 1] as u128;
        while q_hat >> 64 != 0
            || q_hat * den[n - 2] as u128 > ((r_hat << 64) | num[j + n - 2] as u128)
        {
            q_hat -= 1;
            r_hat += den[n - 1] as u128;
            if r_hat >> 64 != 0 {
                break;
            }
        }
        // Multiply-and-subtract q_hat * den from num[j..j+n+1].
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = q_hat * den[i] as u128 + carry;
            carry = p >> 64;
            let sub = (num[j + i] as i128) - (p as u64 as i128) + borrow;
            num[j + i] = sub as u64;
            borrow = sub >> 64;
        }
        let sub = (num[j + n] as i128) - (carry as i128) + borrow;
        num[j + n] = sub as u64;
        borrow = sub >> 64;

        if borrow < 0 {
            // q_hat was one too large: add the divisor back.
            q_hat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = num[j + i] as u128 + den[i] as u128 + carry;
                num[j + i] = s as u64;
                carry = s >> 64;
            }
            num[j + n] = num[j + n].wrapping_add(carry as u64);
        }
        quot[j] = q_hat as u64;
    }
}

/// Divides a 256-bit value by a 256-bit value, both as limb arrays.
/// The divisor must be nonzero and not larger than the dividend.
fn div_rem_knuth(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> ([u64; LIMBS], [u64; LIMBS]) {
    let bbits = limbs_bits(b);
    debug_assert!(bbits != 0);
    let n = bbits.div_ceil(64) as usize;
    if n == 1 {
        // Single-limb divisor: schoolbook.
        let d = b[0];
        let mut q = [0u64; LIMBS];
        let mut rem: u128 = 0;
        for i in (0..LIMBS).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        return (q, [rem as u64, 0, 0, 0]);
    }
    let shift = b[n - 1].leading_zeros();
    let mut den = vec![0u64; n];
    limbs_shl_small(&b[..n], shift, &mut den);
    let mut num = vec![0u64; LIMBS + 1];
    limbs_shl_small(a, shift, &mut num);
    let mut quot = vec![0u64; LIMBS - n + 1];
    div_knuth_normalized(&mut num, &den, &mut quot);
    limbs_shr_small(&mut num[..n], shift);
    let mut q = [0u64; LIMBS];
    q[..quot.len().min(LIMBS)].copy_from_slice(&quot[..quot.len().min(LIMBS)]);
    let mut r = [0u64; LIMBS];
    r[..n].copy_from_slice(&num[..n]);
    (q, r)
}

/// Remainder of a 512-bit value divided by a nonzero 256-bit modulus.
fn rem_wide(a: &[u64; 2 * LIMBS], m: &[u64; LIMBS]) -> [u64; LIMBS] {
    let abits = limbs_bits(a);
    let mbits = limbs_bits(m);
    debug_assert!(mbits != 0);
    if abits < mbits {
        let mut r = [0u64; LIMBS];
        r.copy_from_slice(&a[..LIMBS]);
        return r;
    }
    let n = mbits.div_ceil(64) as usize;
    if n == 1 {
        let d = m[0];
        let mut rem: u128 = 0;
        for i in (0..2 * LIMBS).rev() {
            let cur = (rem << 64) | a[i] as u128;
            rem = cur % d as u128;
        }
        return [rem as u64, 0, 0, 0];
    }
    let a_len = abits.div_ceil(64) as usize;
    let shift = m[n - 1].leading_zeros();
    let mut den = vec![0u64; n];
    limbs_shl_small(&m[..n], shift, &mut den);
    let mut num = vec![0u64; a_len + 1];
    limbs_shl_small(&a[..a_len], shift, &mut num);
    let mut quot = vec![0u64; a_len - n + 1];
    div_knuth_normalized(&mut num, &den, &mut quot);
    limbs_shr_small(&mut num[..n], shift);
    let mut r = [0u64; LIMBS];
    r[..n].copy_from_slice(&num[..n]);
    r
}

// ---------------------------------------------------------------------------
// Operator impls
// ---------------------------------------------------------------------------

impl Add for U256 {
    type Output = U256;
    #[inline]
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(rhs)
    }
}

impl Sub for U256 {
    type Output = U256;
    #[inline]
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(rhs)
    }
}

impl Mul for U256 {
    type Output = U256;
    #[inline]
    fn mul(self, rhs: U256) -> U256 {
        self.wrapping_mul(rhs)
    }
}

impl Div for U256 {
    type Output = U256;
    /// # Panics
    ///
    /// Panics when `rhs` is zero; use [`U256::evm_div`] for EVM semantics.
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).expect("division by zero").0
    }
}

impl Rem for U256 {
    type Output = U256;
    /// # Panics
    ///
    /// Panics when `rhs` is zero; use [`U256::evm_rem`] for EVM semantics.
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).expect("remainder by zero").1
    }
}

impl AddAssign for U256 {
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl SubAssign for U256 {
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl MulAssign for U256 {
    fn mul_assign(&mut self, rhs: U256) {
        *self = *self * rhs;
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl BitAndAssign for U256 {
    fn bitand_assign(&mut self, rhs: U256) {
        *self = *self & rhs;
    }
}

impl BitOrAssign for U256 {
    fn bitor_assign(&mut self, rhs: U256) {
        *self = *self | rhs;
    }
}

impl BitXorAssign for U256 {
    fn bitxor_assign(&mut self, rhs: U256) {
        *self = *self ^ rhs;
    }
}

impl Shl<usize> for U256 {
    type Output = U256;
    #[allow(clippy::needless_range_loop)] // shifted limb indexing
    fn shl(self, s: usize) -> U256 {
        if s >= 256 {
            return U256::ZERO;
        }
        let limb_shift = s / 64;
        let bit_shift = (s % 64) as u32;
        let mut out = [0u64; LIMBS];
        for i in (0..LIMBS).rev() {
            if i >= limb_shift {
                out[i] = self.0[i - limb_shift] << bit_shift;
                if bit_shift > 0 && i > limb_shift {
                    out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
                }
            }
        }
        U256(out)
    }
}

impl Shr<usize> for U256 {
    type Output = U256;
    #[allow(clippy::needless_range_loop)] // shifted limb indexing
    fn shr(self, s: usize) -> U256 {
        if s >= 256 {
            return U256::ZERO;
        }
        let limb_shift = s / 64;
        let bit_shift = (s % 64) as u32;
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            if i + limb_shift < LIMBS {
                out[i] = self.0[i + limb_shift] >> bit_shift;
                if bit_shift > 0 && i + limb_shift + 1 < LIMBS {
                    out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
                }
            }
        }
        U256(out)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        limbs_cmp(&self.0, &other.0)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |a, b| a + b)
    }
}

impl Product for U256 {
    fn product<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ONE, |a, b| a * b)
    }
}

impl From<bool> for U256 {
    fn from(b: bool) -> U256 {
        if b {
            U256::ONE
        } else {
            U256::ZERO
        }
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for U256 {
            fn from(v: $t) -> U256 {
                U256([v as u64, 0, 0, 0])
            }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

impl From<u128> for U256 {
    fn from(v: u128) -> U256 {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{:x})", self)
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal rendering via repeated division by 10^19.
        if self.is_zero() {
            return f.write_str("0");
        }
        let chunk = U256::from(10_000_000_000_000_000_000u64);
        let mut v = *self;
        let mut parts: Vec<u64> = Vec::new();
        while !v.is_zero() {
            let (q, r) = v.div_rem(chunk).expect("nonzero divisor");
            parts.push(r.low_u64());
            v = q;
        }
        let mut s = parts.pop().expect("nonzero value has digits").to_string();
        while let Some(p) = parts.pop() {
            s.push_str(&format!("{:019}", p));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let mut significant = false;
        for i in (0..LIMBS).rev() {
            if significant {
                s.push_str(&format!("{:016x}", self.0[i]));
            } else if self.0[i] != 0 || i == 0 {
                s.push_str(&format!("{:x}", self.0[i]));
                significant = true;
            }
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::UpperHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lower = format!("{:x}", self);
        f.pad_integral(true, "0x", &lower.to_uppercase())
    }
}

impl fmt::Binary for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let mut significant = false;
        for i in (0..LIMBS).rev() {
            if significant {
                s.push_str(&format!("{:064b}", self.0[i]));
            } else if self.0[i] != 0 || i == 0 {
                s.push_str(&format!("{:b}", self.0[i]));
                significant = true;
            }
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    #[test]
    fn add_wraps() {
        assert_eq!(U256::MAX + U256::ONE, U256::ZERO);
        assert_eq!(u(2) + u(3), u(5));
        let (s, c) = U256::MAX.overflowing_add(U256::MAX);
        assert!(c);
        assert_eq!(s, U256::MAX - U256::ONE);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(U256::ZERO - U256::ONE, U256::MAX);
        assert_eq!(u(5) - u(3), u(2));
    }

    #[test]
    fn mul_basic_and_wide() {
        assert_eq!(u(7) * u(6), u(42));
        let a = U256::from(u128::MAX);
        let sq = a.mul_wide(a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let low = U256([sq[0], sq[1], sq[2], sq[3]]);
        let expected_low = U256::ZERO - (U256::ONE << 129) + U256::ONE;
        assert_eq!(low, expected_low);
        assert_eq!(sq[4], 0);
    }

    #[test]
    fn div_rem_cases() {
        assert_eq!(u(10).div_rem(u(3)), Some((u(3), u(1))));
        assert_eq!(u(10).div_rem(U256::ZERO), None);
        assert_eq!(U256::ZERO.div_rem(u(7)), Some((U256::ZERO, U256::ZERO)));
        let big = U256::MAX;
        let (q, r) = big.div_rem(u(1)).unwrap();
        assert_eq!(q, big);
        assert_eq!(r, U256::ZERO);
        // Multi-limb divisor path.
        let a = U256::from_str_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = U256::from_str_hex("100000000000000000001").unwrap();
        let (q, r) = a.div_rem(b).unwrap();
        assert_eq!(q * b + r, a);
        assert!(r < b);
    }

    #[test]
    fn knuth_add_back_branch() {
        // Constructed so q_hat over-estimates and the add-back path runs.
        let a = U256([0, 0, 1 << 63, 1 << 63]);
        let b = U256([u64::MAX, u64::MAX >> 1, 0, 0]);
        let (q, r) = a.div_rem(b).unwrap();
        assert_eq!(q * b + r, a);
        assert!(r < b);
    }

    #[test]
    fn evm_div_zero() {
        assert_eq!(u(9).evm_div(U256::ZERO), U256::ZERO);
        assert_eq!(u(9).evm_rem(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn sdiv_smod() {
        let neg = |v: u64| u(v).twos_neg();
        assert_eq!(neg(10).evm_sdiv(u(3)), neg(3));
        assert_eq!(neg(10).evm_sdiv(neg(3)), u(3));
        assert_eq!(u(10).evm_sdiv(neg(3)), neg(3));
        assert_eq!(neg(10).evm_smod(u(3)), neg(1));
        assert_eq!(u(10).evm_smod(neg(3)), u(1));
        // MIN / -1 wraps to MIN.
        assert_eq!(U256::SIGN_BIT.evm_sdiv(U256::MAX), U256::SIGN_BIT);
        assert_eq!(u(1).evm_sdiv(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn addmod_mulmod() {
        assert_eq!(u(10).addmod(u(10), u(8)), u(4));
        assert_eq!(U256::MAX.addmod(u(2), u(2)), u(1));
        assert_eq!(u(10).mulmod(u(10), u(8)), u(4));
        assert_eq!(U256::MAX.mulmod(U256::MAX, u(12)), u(9));
        assert_eq!(u(5).mulmod(u(5), U256::ZERO), U256::ZERO);
        // 512-bit reduction against a multi-limb modulus.
        let m = (U256::ONE << 130) - U256::ONE;
        let r = U256::MAX.mulmod(U256::MAX, m);
        assert!(r < m);
    }

    #[test]
    fn exp() {
        assert_eq!(u(2).wrapping_pow(u(10)), u(1024));
        assert_eq!(u(0).wrapping_pow(u(0)), u(1)); // EVM: 0**0 == 1
        assert_eq!(u(3).wrapping_pow(U256::ZERO), u(1));
        assert_eq!(u(2).wrapping_pow(u(256)), U256::ZERO); // wraps
    }

    #[test]
    fn signextend_cases() {
        // 0xff sign-extended from byte 0 -> all ones.
        assert_eq!(u(0xff).signextend(u(0)), U256::MAX);
        assert_eq!(u(0x7f).signextend(u(0)), u(0x7f));
        assert_eq!(u(0xff).signextend(u(1)), u(0xff));
        let v = u(0xdead);
        assert_eq!(v.signextend(u(31)), v);
        assert_eq!(v.signextend(U256::MAX), v);
    }

    #[test]
    fn byte_be_indexing() {
        let v =
            U256::from_str_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
                .unwrap();
        assert_eq!(v.byte_be(u(0)), u(0x01));
        assert_eq!(v.byte_be(u(31)), u(0x20));
        assert_eq!(v.byte_be(u(32)), U256::ZERO);
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1) << 255, U256::SIGN_BIT);
        assert_eq!(U256::SIGN_BIT >> 255, u(1));
        assert_eq!(u(1).evm_shl(u(256)), U256::ZERO);
        assert_eq!(U256::MAX.evm_shr(u(256)), U256::ZERO);
        assert_eq!(U256::MAX.evm_sar(u(256)), U256::MAX);
        assert_eq!(
            U256::SIGN_BIT.evm_sar(u(1)),
            U256::SIGN_BIT | (U256::SIGN_BIT >> 1)
        );
        assert_eq!(u(0x10).evm_sar(u(4)), u(1));
    }

    #[test]
    fn shift_amount_boundaries() {
        // Shifts of exactly 255 (last in-range), 256, and 257 (both
        // saturating) — for positive and negative operands.
        let one = u(1);
        let neg = U256::MAX; // -1 in two's complement
        let pos = U256::MAX >> 1; // largest non-negative value

        assert_eq!(one.evm_shl(u(255)), U256::SIGN_BIT);
        assert_eq!(one.evm_shl(u(256)), U256::ZERO);
        assert_eq!(one.evm_shl(u(257)), U256::ZERO);
        assert_eq!(neg.evm_shl(u(255)), U256::SIGN_BIT);

        assert_eq!(U256::SIGN_BIT.evm_shr(u(255)), one);
        assert_eq!(neg.evm_shr(u(255)), one);
        assert_eq!(neg.evm_shr(u(256)), U256::ZERO);
        assert_eq!(neg.evm_shr(u(257)), U256::ZERO);

        // SAR of a negative value saturates to -1, a positive one to 0.
        assert_eq!(neg.evm_sar(u(255)), U256::MAX);
        assert_eq!(neg.evm_sar(u(256)), U256::MAX);
        assert_eq!(neg.evm_sar(u(257)), U256::MAX);
        assert_eq!(U256::SIGN_BIT.evm_sar(u(255)), U256::MAX);
        assert_eq!(pos.evm_sar(u(255)), U256::ZERO);
        assert_eq!(pos.evm_sar(u(256)), U256::ZERO);
        assert_eq!(pos.evm_sar(u(257)), U256::ZERO);

        // Shift amounts wider than 64 bits also saturate.
        let huge = U256::ONE << 64;
        assert_eq!(one.evm_shl(huge), U256::ZERO);
        assert_eq!(neg.evm_shr(huge), U256::ZERO);
        assert_eq!(neg.evm_sar(huge), U256::MAX);
    }

    #[test]
    fn signed_cmp_ordering() {
        let minus_one = U256::MAX;
        assert_eq!(minus_one.signed_cmp(&U256::ZERO), Ordering::Less);
        assert_eq!(U256::ZERO.signed_cmp(&minus_one), Ordering::Greater);
        assert_eq!(u(3).signed_cmp(&u(4)), Ordering::Less);
        assert_eq!(minus_one.signed_cmp(&U256::MAX), Ordering::Equal);
    }

    #[test]
    fn bytes_round_trip() {
        let v = U256::from_str_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        assert_eq!(U256::from_be_slice(&v.to_be_bytes_trimmed()), v);
        assert_eq!(U256::ZERO.to_be_bytes_trimmed(), Vec::<u8>::new());
    }

    #[test]
    fn byte_len_and_write_be_into_match_trimmed() {
        let samples = [
            U256::ZERO,
            U256::ONE,
            u(0xff),
            u(0x100),
            u(u64::MAX),
            U256::from_str_hex("deadbeefcafebabe0123456789abcdef").unwrap(),
            U256::MAX,
        ];
        for v in samples {
            let trimmed = v.to_be_bytes_trimmed();
            assert_eq!(v.byte_len(), trimmed.len(), "{v}");
            let mut buf = [0u8; 32];
            let first = v.write_be_into(&mut buf);
            assert_eq!(&buf[first..], &trimmed[..], "{v}");
            assert_eq!(buf, v.to_be_bytes(), "{v}");
        }
    }

    #[test]
    fn parsing() {
        assert_eq!("0x10".parse::<U256>().unwrap(), u(16));
        assert_eq!("10".parse::<U256>().unwrap(), u(10));
        assert_eq!(
            U256::from_str_dec(
                "115792089237316195423570985008687907853269984665640564039457584007913129639935"
            )
            .unwrap(),
            U256::MAX
        );
        assert!(U256::from_str_dec(
            "115792089237316195423570985008687907853269984665640564039457584007913129639936"
        )
        .is_err());
        assert!("0x".parse::<U256>().is_err());
        assert!("xyz".parse::<U256>().is_err());
    }

    #[test]
    fn display_and_hex() {
        assert_eq!(format!("{}", u(0)), "0");
        assert_eq!(format!("{}", u(12345)), "12345");
        assert_eq!(format!("{:x}", u(255)), "ff");
        assert_eq!(format!("{:#x}", u(255)), "0xff");
        assert_eq!(
            format!("{}", U256::MAX),
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
        assert_eq!(format!("{:b}", u(5)), "101");
        assert_eq!(format!("{:X}", u(255)), "FF");
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        assert_eq!((U256::ONE << 200).bits(), 201);
        assert!(U256::SIGN_BIT.bit(255));
        assert!(!U256::SIGN_BIT.bit(254));
        assert!(!U256::ONE.bit(256));
        assert_eq!(U256::MAX.count_ones(), 256);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(U256::MAX.saturating_add(u(1)), U256::MAX);
        assert_eq!(U256::ZERO.saturating_sub(u(1)), U256::ZERO);
        assert_eq!(u(4).saturating_sub(u(1)), u(3));
    }

    #[test]
    fn conversions() {
        assert_eq!(U256::from(true), U256::ONE);
        assert_eq!(U256::from(false), U256::ZERO);
        assert_eq!(U256::from(7u8).low_u64(), 7);
        assert_eq!(U256::from(u128::MAX).low_u128(), u128::MAX);
        assert_eq!(u(9).try_to_u64(), Some(9));
        assert_eq!((U256::ONE << 64).try_to_u64(), None);
        assert_eq!((U256::ONE << 200).saturating_to_usize(), usize::MAX);
    }
}
