//! Recursive Length Prefix (RLP) encoding and decoding, the serialization
//! format Ethereum uses for transactions and blocks (paper §2.1, Fig. 3).

use crate::u256::U256;
use core::fmt;

/// An RLP item: either a byte string or a list of items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Item {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A (possibly nested) list.
    List(Vec<Item>),
}

impl Item {
    /// Convenience constructor for a byte-string item.
    pub fn bytes(b: Vec<u8>) -> Item {
        Item::Bytes(b)
    }

    /// Encodes an unsigned integer as a minimal big-endian byte string
    /// (canonical RLP integer form: no leading zeros, empty for zero).
    pub fn uint(v: u64) -> Item {
        Item::u256(U256::from(v))
    }

    /// Encodes a [`U256`] canonically. The minimal byte form is written
    /// through a stack buffer ([`U256::write_be_into`]) so the only
    /// allocation is the exact-length payload itself.
    pub fn u256(v: U256) -> Item {
        let mut buf = [0u8; 32];
        let first = v.write_be_into(&mut buf);
        Item::Bytes(buf[first..].to_vec())
    }

    /// Returns the byte string, or `None` for lists.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Item::Bytes(b) => Some(b),
            Item::List(_) => None,
        }
    }

    /// Returns the item list, or `None` for byte strings.
    pub fn as_list(&self) -> Option<&[Item]> {
        match self {
            Item::List(l) => Some(l),
            Item::Bytes(_) => None,
        }
    }

    /// Decodes this item's payload as a canonical unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on lists, on payloads longer than 32 bytes, and on
    /// non-canonical leading zeros.
    pub fn to_u256(&self) -> Result<U256, DecodeError> {
        let b = self.as_bytes().ok_or(DecodeError::ExpectedBytes)?;
        if b.len() > 32 {
            return Err(DecodeError::IntegerTooLarge);
        }
        if b.first() == Some(&0) {
            return Err(DecodeError::NonCanonicalInteger);
        }
        Ok(U256::from_be_slice(b))
    }
}

/// Serializes an item to its RLP byte representation. Lengths are
/// precomputed ([`encoded_len`]) so the encoding is written in one pass
/// into a single exactly-sized buffer, with no intermediate payload
/// buffers.
pub fn encode(item: &Item) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(item));
    encode_into(item, &mut out);
    out
}

/// Serializes a sequence of items as an RLP list.
pub fn encode_list(items: &[Item]) -> Vec<u8> {
    let payload: usize = items.iter().map(encoded_len).sum();
    let mut out = Vec::with_capacity(header_len(payload) + payload);
    encode_header(true, payload, &mut out);
    for it in items {
        encode_into(it, &mut out);
    }
    out
}

/// Exact length in bytes of [`encode`]'s output for `item`.
pub fn encoded_len(item: &Item) -> usize {
    match item {
        Item::Bytes(b) => encoded_bytes_len(b),
        Item::List(items) => {
            let payload: usize = items.iter().map(encoded_len).sum();
            header_len(payload) + payload
        }
    }
}

fn encode_into(item: &Item, out: &mut Vec<u8>) {
    match item {
        Item::Bytes(b) => encode_bytes_into(b, out),
        Item::List(items) => {
            encode_header(true, items.iter().map(encoded_len).sum(), out);
            for it in items {
                encode_into(it, out);
            }
        }
    }
}

/// Exact encoded length of the byte string `b`.
pub fn encoded_bytes_len(b: &[u8]) -> usize {
    if b.len() == 1 && b[0] < 0x80 {
        1
    } else {
        header_len(b.len()) + b.len()
    }
}

/// Exact encoded length of `v` as a canonical integer ([`Item::u256`]),
/// computed without writing it.
pub fn encoded_u256_len(v: U256) -> usize {
    match v.byte_len() {
        1 if v.low_u64() < 0x80 => 1,
        len => header_len(len) + len,
    }
}

/// Appends the encoding of the byte string `b` to `out`. With
/// [`encode_header`] this lets an encoder write a structure straight
/// into one exactly-sized buffer instead of building an [`Item`] tree.
pub fn encode_bytes_into(b: &[u8], out: &mut Vec<u8>) {
    if b.len() == 1 && b[0] < 0x80 {
        out.push(b[0]);
    } else {
        encode_header(false, b.len(), out);
        out.extend_from_slice(b);
    }
}

/// Bytes the header of a `payload_len`-byte string or list payload
/// occupies (the header byte plus any big-endian length bytes). A
/// single byte below `0x80` is its own encoding and has no header.
pub fn header_len(payload_len: usize) -> usize {
    if payload_len <= 55 {
        1
    } else {
        1 + (8 - (payload_len as u64).leading_zeros() as usize / 8)
    }
}

/// Appends the header of a `payload_len`-byte list (or string) payload
/// to `out`; the caller appends the payload.
pub fn encode_header(is_list: bool, payload_len: usize, out: &mut Vec<u8>) {
    let offset = if is_list { 0xc0 } else { 0x80 };
    if payload_len <= 55 {
        out.push(offset + payload_len as u8);
    } else {
        let be = (payload_len as u64).to_be_bytes();
        let first = be.iter().position(|&b| b != 0).expect("len > 55");
        out.push(offset + 55 + (8 - first) as u8);
        out.extend_from_slice(&be[first..]);
    }
}

/// Error produced while decoding RLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the announced payload.
    UnexpectedEnd,
    /// A length prefix was not minimally encoded.
    NonCanonicalLength,
    /// A single byte < 0x80 was wrapped in a string header.
    NonCanonicalByte,
    /// Extra bytes remained after the top-level item.
    TrailingBytes,
    /// Expected a byte string but found a list.
    ExpectedBytes,
    /// Expected a list but found a byte string.
    ExpectedList,
    /// An integer payload had a leading zero byte.
    NonCanonicalInteger,
    /// An integer payload exceeded 256 bits.
    IntegerTooLarge,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            DecodeError::UnexpectedEnd => "input ended before announced payload",
            DecodeError::NonCanonicalLength => "length prefix not minimal",
            DecodeError::NonCanonicalByte => "single byte wrapped in string header",
            DecodeError::TrailingBytes => "trailing bytes after item",
            DecodeError::ExpectedBytes => "expected byte string, found list",
            DecodeError::ExpectedList => "expected list, found byte string",
            DecodeError::NonCanonicalInteger => "integer has leading zero",
            DecodeError::IntegerTooLarge => "integer exceeds 256 bits",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a complete RLP item, rejecting trailing bytes.
pub fn decode(data: &[u8]) -> Result<Item, DecodeError> {
    let (item, rest) = decode_prefix(data)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(item)
}

/// Decodes one item from the front of `data`, returning it and the
/// remaining bytes.
pub fn decode_prefix(data: &[u8]) -> Result<(Item, &[u8]), DecodeError> {
    let (is_list, payload, rest) = split_item(data)?;
    let item = if is_list {
        Item::List(decode_list_payload(payload)?)
    } else {
        Item::Bytes(payload.to_vec())
    };
    Ok((item, rest))
}

/// Splits one item off the front of `data` without copying: returns
/// whether it is a list, its payload (a single-byte string is its own
/// payload) and the bytes after it. Applies every canonical-form check
/// [`decode`] applies to this item's header — minimal lengths, no
/// wrapped single byte — but none to a list payload's nested items,
/// which the caller splits in turn.
///
/// # Errors
///
/// [`DecodeError::UnexpectedEnd`] when the announced payload overruns
/// `data`, and the non-canonical header errors.
pub fn split_item(data: &[u8]) -> Result<(bool, &[u8], &[u8]), DecodeError> {
    let (&first, rest) = data.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    match first {
        0x00..=0x7f => Ok((false, &data[..1], rest)),
        0x80..=0xb7 => {
            let len = (first - 0x80) as usize;
            let (payload, rest) = take(rest, len)?;
            if len == 1 && payload[0] < 0x80 {
                return Err(DecodeError::NonCanonicalByte);
            }
            Ok((false, payload, rest))
        }
        0xb8..=0xbf => {
            let (len, rest) = read_long_length(rest, (first - 0xb7) as usize)?;
            let (payload, rest) = take(rest, len)?;
            Ok((false, payload, rest))
        }
        0xc0..=0xf7 => {
            let (payload, rest) = take(rest, (first - 0xc0) as usize)?;
            Ok((true, payload, rest))
        }
        0xf8..=0xff => {
            let (len, rest) = read_long_length(rest, (first - 0xf7) as usize)?;
            let (payload, rest) = take(rest, len)?;
            Ok((true, payload, rest))
        }
    }
}

fn take(data: &[u8], n: usize) -> Result<(&[u8], &[u8]), DecodeError> {
    if data.len() < n {
        return Err(DecodeError::UnexpectedEnd);
    }
    Ok(data.split_at(n))
}

fn read_long_length(data: &[u8], len_len: usize) -> Result<(usize, &[u8]), DecodeError> {
    let (len_bytes, rest) = take(data, len_len)?;
    if len_bytes.first() == Some(&0) {
        return Err(DecodeError::NonCanonicalLength);
    }
    let mut len = 0usize;
    for &b in len_bytes {
        len = len
            .checked_mul(256)
            .ok_or(DecodeError::NonCanonicalLength)?
            + b as usize;
    }
    if len <= 55 {
        return Err(DecodeError::NonCanonicalLength);
    }
    Ok((len, rest))
}

fn decode_list_payload(mut payload: &[u8]) -> Result<Vec<Item>, DecodeError> {
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, rest) = decode_prefix(payload)?;
        items.push(item);
        payload = rest;
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_examples() {
        // From the Ethereum wiki RLP test set.
        assert_eq!(
            encode(&Item::bytes(b"dog".to_vec())),
            vec![0x83, b'd', b'o', b'g']
        );
        assert_eq!(
            encode_list(&[Item::bytes(b"cat".to_vec()), Item::bytes(b"dog".to_vec())]),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode(&Item::bytes(vec![])), vec![0x80]);
        assert_eq!(encode(&Item::uint(0)), vec![0x80]);
        assert_eq!(encode(&Item::uint(15)), vec![0x0f]);
        assert_eq!(encode(&Item::uint(1024)), vec![0x82, 0x04, 0x00]);
        assert_eq!(encode(&Item::List(vec![])), vec![0xc0]);
    }

    #[test]
    fn nested_list() {
        // [ [], [[]], [ [], [[]] ] ] — the "set theoretic" example.
        let item = Item::List(vec![
            Item::List(vec![]),
            Item::List(vec![Item::List(vec![])]),
            Item::List(vec![
                Item::List(vec![]),
                Item::List(vec![Item::List(vec![])]),
            ]),
        ]);
        let enc = encode(&item);
        assert_eq!(enc, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        assert_eq!(decode(&enc).unwrap(), item);
    }

    #[test]
    fn long_string() {
        let s = vec![b'a'; 56];
        let enc = encode(&Item::bytes(s.clone()));
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], 56);
        assert_eq!(decode(&enc).unwrap(), Item::Bytes(s));
    }

    #[test]
    fn long_list() {
        let items: Vec<Item> = (0..30).map(|i| Item::uint(i + 200)).collect();
        let enc = encode_list(&items);
        assert_eq!(decode(&enc).unwrap(), Item::List(items));
    }

    #[test]
    fn round_trip_u256() {
        for v in [U256::ZERO, U256::ONE, U256::from(0x80u64), U256::MAX] {
            let enc = encode(&Item::u256(v));
            assert_eq!(decode(&enc).unwrap().to_u256().unwrap(), v);
        }
    }

    #[test]
    fn rejects_noncanonical() {
        // 0x01 wrapped as a one-byte string must be rejected.
        assert_eq!(decode(&[0x81, 0x01]), Err(DecodeError::NonCanonicalByte));
        // Long form used for a short payload.
        assert_eq!(
            decode(&[0xb8, 0x01, 0xaa]),
            Err(DecodeError::NonCanonicalLength)
        );
        // Length bytes with leading zero.
        assert_eq!(
            decode(&[0xb9, 0x00, 0x38]),
            Err(DecodeError::NonCanonicalLength)
        );
        // Truncated payload.
        assert_eq!(decode(&[0x83, b'd', b'o']), Err(DecodeError::UnexpectedEnd));
        // Trailing garbage.
        assert_eq!(decode(&[0x01, 0x02]), Err(DecodeError::TrailingBytes));
        // Integer with leading zero.
        let it = decode(&[0x82, 0x00, 0x01]);
        assert_eq!(it.unwrap().to_u256(), Err(DecodeError::NonCanonicalInteger));
    }

    #[test]
    fn split_item_borrows_and_checks_only_the_header() {
        let mut data = encode_list(&[Item::bytes(b"cat".to_vec()), Item::uint(5)]);
        data.push(0x01);
        let (is_list, payload, rest) = split_item(&data).unwrap();
        assert!(is_list);
        assert_eq!(payload, &data[1..6]);
        assert_eq!(rest, &[0x01]);
        assert_eq!(split_item(&[0x05]), Ok((false, &[0x05][..], &[][..])));
        assert_eq!(
            split_item(&[0x81, 0x05]),
            Err(DecodeError::NonCanonicalByte)
        );
        // A list's nested items are the caller's to split.
        assert!(split_item(&[0xc1, 0x81]).is_ok());
        assert_eq!(decode(&[0xc1, 0x81]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn empty_input() {
        assert_eq!(decode(&[]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn encoded_len_matches_encode() {
        let samples = [
            Item::bytes(vec![]),
            Item::bytes(vec![0x7f]),
            Item::bytes(vec![0x80]),
            Item::bytes(vec![b'x'; 55]),
            Item::bytes(vec![b'x'; 56]),
            Item::bytes(vec![b'x'; 300]),
            Item::uint(0),
            Item::u256(U256::MAX),
            Item::List(vec![]),
            Item::List(vec![Item::uint(7), Item::bytes(vec![1; 60])]),
            Item::List((0..40).map(|i| Item::uint(i * 1_000_003)).collect()),
        ];
        for item in &samples {
            let enc = encode(item);
            assert_eq!(enc.len(), encoded_len(item), "{item:?}");
            assert_eq!(decode(&enc).unwrap(), *item, "{item:?}");
        }
    }
}
