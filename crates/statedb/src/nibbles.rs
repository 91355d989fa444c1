//! Nibble paths and the yellow-paper hex-prefix encoding (Appendix C).
//!
//! Trie keys are traversed half a byte at a time; leaf and extension
//! nodes store their path compactly as bytes with a flag nibble that
//! records (a) whether the path has odd length and (b) whether the node
//! is a leaf (path terminates) or an extension.

/// Expands `bytes` into one nibble (0..16) per element, high nibble
/// first.
pub fn to_nibbles(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

/// Length of the hex-prefix encoding of an `n`-nibble path.
pub fn hp_len(n: usize) -> usize {
    1 + n / 2
}

/// Appends the hex-prefix encoding of `nibbles` to `out`; `is_leaf` sets
/// the terminator flag. The first byte is the flag byte, always below
/// `0x40`.
pub fn hp_encode_into(nibbles: &[u8], is_leaf: bool, out: &mut Vec<u8>) {
    let mut flag = if is_leaf { 0x20u8 } else { 0x00 };
    let rest = if nibbles.len() % 2 == 1 {
        flag |= 0x10 | nibbles[0];
        &nibbles[1..]
    } else {
        nibbles
    };
    out.push(flag);
    for pair in rest.chunks(2) {
        out.push((pair[0] << 4) | pair[1]);
    }
}

/// Decodes a hex-prefix path back into `(nibbles, is_leaf)`.
///
/// Returns `None` for an empty input or an unknown flag nibble.
pub fn hp_decode(bytes: &[u8]) -> Option<(Vec<u8>, bool)> {
    let (&first, rest) = bytes.split_first()?;
    let flags = first >> 4;
    if flags > 3 {
        return None;
    }
    let is_leaf = flags & 0x2 != 0;
    let mut nibbles = Vec::with_capacity(rest.len() * 2 + 1);
    if flags & 0x1 != 0 {
        nibbles.push(first & 0x0f);
    } else if first & 0x0f != 0 {
        return None; // padding nibble must be zero on even paths
    }
    for &b in rest {
        nibbles.push(b >> 4);
        nibbles.push(b & 0x0f);
    }
    Some((nibbles, is_leaf))
}

/// Length of the longest common prefix of two nibble slices.
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp_encode(nibbles: &[u8], is_leaf: bool) -> Vec<u8> {
        let mut out = Vec::new();
        hp_encode_into(nibbles, is_leaf, &mut out);
        assert_eq!(out.len(), hp_len(nibbles.len()));
        out
    }

    #[test]
    fn nibble_expansion() {
        assert_eq!(to_nibbles(&[0xab, 0x01]), vec![0xa, 0xb, 0x0, 0x1]);
        assert!(to_nibbles(&[]).is_empty());
    }

    #[test]
    fn hex_prefix_yellow_paper_cases() {
        // Even extension.
        assert_eq!(
            hp_encode(&[0x1, 0x2, 0x3, 0x4], false),
            vec![0x00, 0x12, 0x34]
        );
        // Odd extension.
        assert_eq!(hp_encode(&[0x1, 0x2, 0x3], false), vec![0x11, 0x23]);
        // Even leaf.
        assert_eq!(hp_encode(&[0x1, 0x2], true), vec![0x20, 0x12]);
        // Odd leaf.
        assert_eq!(hp_encode(&[0xf], true), vec![0x3f]);
        // Empty paths.
        assert_eq!(hp_encode(&[], false), vec![0x00]);
        assert_eq!(hp_encode(&[], true), vec![0x20]);
    }

    #[test]
    fn hex_prefix_round_trips() {
        for len in 0..8 {
            for leaf in [false, true] {
                let nibbles: Vec<u8> = (0..len).map(|i| (i * 3 + 1) % 16).collect();
                let enc = hp_encode(&nibbles, leaf);
                assert_eq!(hp_decode(&enc), Some((nibbles.clone(), leaf)));
            }
        }
    }

    #[test]
    fn hex_prefix_rejects_garbage() {
        assert_eq!(hp_decode(&[]), None);
        assert_eq!(hp_decode(&[0x40]), None); // unknown flag
        assert_eq!(hp_decode(&[0x01]), None); // nonzero padding on even path
    }

    #[test]
    fn common_prefix_lengths() {
        assert_eq!(common_prefix(&[1, 2, 3], &[1, 2, 4]), 2);
        assert_eq!(common_prefix(&[1], &[]), 0);
        assert_eq!(common_prefix(&[5, 6], &[5, 6]), 2);
    }
}
