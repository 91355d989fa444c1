//! Trie node representation and its canonical RLP codec.
//!
//! The three Ethereum node kinds — leaf, extension and branch — encode to
//! RLP lists; a node whose encoding is shorter than 32 bytes is embedded
//! *inline* in its parent, otherwise the parent stores its keccak hash
//! and the raw bytes live in the [`crate::store::NodeStore`].
//!
//! The codec is direct: [`Node::encode`] writes a node straight into one
//! exactly-sized buffer, and [`Node::decode`] parses stored bytes by
//! borrowing slices of them. Neither builds an RLP item tree.

use crate::nibbles::{hp_decode, hp_encode_into, hp_len};
use mtpu_primitives::rlp::{self, DecodeError};
use mtpu_primitives::B256;
use std::fmt;

/// A reference from a node to one of its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Link {
    /// A committed child, addressed by the keccak hash of its encoding.
    Hash(B256),
    /// An in-memory child: freshly mutated, or decoded from an inline
    /// (sub-32-byte) embedding in its parent.
    Node(Box<Node>),
}

/// One Merkle Patricia Trie node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Terminates a key: remaining path + value.
    Leaf {
        /// Remaining key nibbles (may be empty).
        path: Vec<u8>,
        /// Stored value (never empty; empty insert means delete).
        value: Vec<u8>,
    },
    /// Compresses a shared path segment above a branch.
    Extension {
        /// Shared key nibbles (never empty).
        path: Vec<u8>,
        /// The node the segment leads to.
        child: Link,
    },
    /// A 16-way fan-out plus an optional value for keys ending here.
    Branch {
        /// One slot per next-nibble, boxed so that leaves, extensions
        /// and every cached or batched node stay small.
        children: Box<[Option<Link>; 16]>,
        /// Value of the key that terminates at this node, if any.
        value: Option<Vec<u8>>,
    },
}

/// Error produced while decoding a stored node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// Underlying RLP was malformed.
    Rlp(rlp::DecodeError),
    /// RLP was valid but not a 2- or 17-item trie node shape.
    Shape(&'static str),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Rlp(e) => write!(f, "invalid node rlp: {e}"),
            NodeError::Shape(what) => write!(f, "invalid node shape: {what}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<DecodeError> for NodeError {
    fn from(e: DecodeError) -> Self {
        NodeError::Rlp(e)
    }
}

const ARITY: &str = "node list must have 2 or 17 items";

impl Link {
    /// Encoded length as an item of the parent's list.
    fn encoded_len(&self) -> usize {
        match self {
            Link::Hash(_) => 33,
            Link::Node(n) => n.encoded_len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Link::Hash(h) => rlp::encode_bytes_into(h.as_bytes(), out),
            Link::Node(n) => n.encode_into(out),
        }
    }
}

impl Node {
    /// Exact length of [`Node::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        let payload = self.payload_len();
        rlp::header_len(payload) + payload
    }

    /// Encodes this node into one exactly-sized buffer: the bytes a
    /// store keeps and the parent hashes. In-memory children are
    /// embedded inline, so they must be the sub-32-byte ones; commit
    /// replaces every larger child with its hash link first.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Node::encode`]'s bytes to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        rlp::encode_header(true, self.payload_len(), out);
        match self {
            Node::Leaf { path, value } => {
                encode_path(path, true, out);
                rlp::encode_bytes_into(value, out);
            }
            Node::Extension { path, child } => {
                encode_path(path, false, out);
                child.encode_into(out);
            }
            Node::Branch { children, value } => {
                for child in children.iter() {
                    match child {
                        Some(link) => link.encode_into(out),
                        None => rlp::encode_bytes_into(&[], out),
                    }
                }
                rlp::encode_bytes_into(value.as_deref().unwrap_or_default(), out);
            }
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            Node::Leaf { path, value } => path_len(path) + rlp::encoded_bytes_len(value),
            Node::Extension { path, child } => path_len(path) + child.encoded_len(),
            Node::Branch { children, value } => {
                let links: usize = children
                    .iter()
                    .map(|c| c.as_ref().map_or(1, Link::encoded_len))
                    .sum();
                links + rlp::encoded_bytes_len(value.as_deref().unwrap_or_default())
            }
        }
    }

    /// Decodes a node from its raw RLP bytes.
    ///
    /// Stored bytes may come from disk, so this accepts exactly what a
    /// full RLP decode plus the node shape rules accept: canonical
    /// lengths, no wrapped single byte, no trailing bytes, a list of 2 or
    /// 17 items, a valid hex-prefix path, and child references of 0 or 32
    /// bytes or an inline node list.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError`] for malformed RLP or a non-node shape.
    pub fn decode(raw: &[u8]) -> Result<Node, NodeError> {
        let (is_list, payload, rest) = rlp::split_item(raw)?;
        if !rest.is_empty() {
            return Err(DecodeError::TrailingBytes.into());
        }
        if !is_list {
            return Err(NodeError::Shape("expected list"));
        }
        Node::decode_list(payload)
    }

    /// Decodes a node from its list payload; inline children recurse
    /// here on the slice of the parent they occupy.
    fn decode_list(mut payload: &[u8]) -> Result<Node, NodeError> {
        let mut items: [(bool, &[u8]); 17] = [(false, &[]); 17];
        let mut n = 0;
        while !payload.is_empty() {
            let (is_list, item, rest) = rlp::split_item(payload)?;
            *items.get_mut(n).ok_or(NodeError::Shape(ARITY))? = (is_list, item);
            n += 1;
            payload = rest;
        }
        match n {
            2 => {
                let hp = bytes(items[0], "path must be bytes")?;
                let (path, is_leaf) =
                    hp_decode(hp).ok_or(NodeError::Shape("bad hex-prefix path"))?;
                if is_leaf {
                    let value = bytes(items[1], "leaf value must be bytes")?;
                    Ok(Node::Leaf {
                        path,
                        value: value.to_vec(),
                    })
                } else {
                    Ok(Node::Extension {
                        path,
                        child: decode_child(items[1])?
                            .ok_or(NodeError::Shape("extension child missing"))?,
                    })
                }
            }
            17 => {
                let mut children: Box<[Option<Link>; 16]> = Box::default();
                for (slot, &item) in children.iter_mut().zip(&items) {
                    *slot = decode_child(item)?;
                }
                let value = bytes(items[16], "branch value must be bytes")?;
                Ok(Node::Branch {
                    children,
                    value: (!value.is_empty()).then(|| value.to_vec()),
                })
            }
            _ => Err(NodeError::Shape(ARITY)),
        }
    }
}

/// Encoded length of a hex-prefix path item. Its flag byte is below
/// `0x80`, so a one-byte path is its own encoding.
fn path_len(path: &[u8]) -> usize {
    let n = hp_len(path.len());
    if n == 1 {
        1
    } else {
        rlp::header_len(n) + n
    }
}

fn encode_path(path: &[u8], is_leaf: bool, out: &mut Vec<u8>) {
    let n = hp_len(path.len());
    if n > 1 {
        rlp::encode_header(false, n, out);
    }
    hp_encode_into(path, is_leaf, out);
}

/// A string item's payload; `what` names the slot if it holds a list.
fn bytes<'a>((is_list, b): (bool, &'a [u8]), what: &'static str) -> Result<&'a [u8], NodeError> {
    if is_list {
        Err(NodeError::Shape(what))
    } else {
        Ok(b)
    }
}

/// A child reference: empty, a 32-byte hash, or an inline node list.
fn decode_child((is_list, b): (bool, &[u8])) -> Result<Option<Link>, NodeError> {
    if is_list {
        return Ok(Some(Link::Node(Box::new(Node::decode_list(b)?))));
    }
    match b.len() {
        0 => Ok(None),
        32 => Ok(Some(Link::Hash(B256::new(b.try_into().expect("32 bytes"))))),
        _ => Err(NodeError::Shape("child ref must be empty or 32 bytes")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trips() {
        let n = Node::Leaf {
            path: vec![0xa, 0xb, 0xc],
            value: b"value".to_vec(),
        };
        let raw = n.encode();
        assert_eq!(raw.len(), n.encoded_len());
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn extension_with_hash_child_round_trips() {
        let n = Node::Extension {
            path: vec![0x1, 0x2],
            child: Link::Hash(B256::keccak(b"child")),
        };
        assert_eq!(Node::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn branch_with_inline_leaf_round_trips() {
        let leaf = Node::Leaf {
            path: vec![0x3],
            value: vec![0x7f],
        };
        let mut children: Box<[Option<Link>; 16]> = Box::default();
        children[4] = Some(Link::Node(Box::new(leaf)));
        children[9] = Some(Link::Hash(B256::keccak(b"big")));
        let n = Node::Branch {
            children,
            value: Some(vec![0x01]),
        };
        // The inline leaf encodes under 32 bytes, so it embeds directly.
        let raw = n.encode();
        assert_eq!(raw.len(), n.encoded_len());
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            Node::decode(&[0x80]),
            Err(NodeError::Shape("expected list"))
        ));
        // A three-item list.
        assert!(matches!(
            Node::decode(&[0xc3, 0x01, 0x02, 0x03]),
            Err(NodeError::Shape(_))
        ));
        assert!(matches!(Node::decode(&[0xff]), Err(NodeError::Rlp(_))));
    }
}
