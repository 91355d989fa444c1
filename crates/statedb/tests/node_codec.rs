//! Differential test of the direct node codec against the generic RLP
//! codec. Every node a commit hashes must encode to the bytes of an
//! `rlp::Item` tree built here from the yellow-paper rules, and
//! `Node::decode` must accept exactly what `rlp::decode` plus the node
//! shape rules (restated here) accept: over every committed node, every
//! truncation and single-byte flip of sampled nodes, and the named
//! non-canonical encodings.

use mtpu_primitives::rlp::{self, Item};
use mtpu_primitives::{SplitMix64, B256};
use mtpu_statedb::{Link, MemStore, Node, NodeDb, NodeSink, Trie};

/// Hex-prefix encoding (yellow paper appendix C).
fn hp(nibbles: &[u8], leaf: bool) -> Vec<u8> {
    let mut flag = if leaf { 0x20 } else { 0x00 };
    let mut rest = nibbles;
    if nibbles.len() % 2 == 1 {
        flag |= 0x10 | nibbles[0];
        rest = &nibbles[1..];
    }
    let mut out = vec![flag];
    out.extend(rest.chunks(2).map(|p| (p[0] << 4) | p[1]));
    out
}

/// Inverse of [`hp`]: `None` for an empty path, an unknown flag nibble,
/// or a nonzero pad nibble on an even path.
fn unhp(bytes: &[u8]) -> Option<(Vec<u8>, bool)> {
    let (&first, rest) = bytes.split_first()?;
    let flags = first >> 4;
    if flags > 3 {
        return None;
    }
    let mut nibbles = Vec::new();
    if flags & 1 == 1 {
        nibbles.push(first & 0x0f);
    } else if first & 0x0f != 0 {
        return None;
    }
    for &b in rest {
        nibbles.push(b >> 4);
        nibbles.push(b & 0x0f);
    }
    Some((nibbles, flags & 2 != 0))
}

/// The item tree a node encodes to; in-memory children embed inline.
fn item_of(node: &Node) -> Item {
    let link = |l: &Link| match l {
        Link::Hash(h) => Item::Bytes(h.as_bytes().to_vec()),
        Link::Node(n) => item_of(n),
    };
    match node {
        Node::Leaf { path, value } => Item::List(vec![
            Item::Bytes(hp(path, true)),
            Item::Bytes(value.clone()),
        ]),
        Node::Extension { path, child } => {
            Item::List(vec![Item::Bytes(hp(path, false)), link(child)])
        }
        Node::Branch { children, value } => {
            let mut items: Vec<Item> = children
                .iter()
                .map(|c| c.as_ref().map_or(Item::Bytes(Vec::new()), link))
                .collect();
            items.push(Item::Bytes(value.clone().unwrap_or_default()));
            Item::List(items)
        }
    }
}

/// What a node decoder must accept: canonical RLP shaped as a node.
fn reference_decode(raw: &[u8]) -> Option<Node> {
    node_of(&rlp::decode(raw).ok()?)
}

/// The shape rules: a list of 2 items (hex-prefix path, then a leaf
/// value or a non-empty child reference) or of 17 (16 child references,
/// then a value; an empty value is none).
fn node_of(item: &Item) -> Option<Node> {
    let items = item.as_list()?;
    match items.len() {
        2 => {
            let (path, leaf) = unhp(items[0].as_bytes()?)?;
            if leaf {
                let value = items[1].as_bytes()?.to_vec();
                Some(Node::Leaf { path, value })
            } else {
                let child = link_of(&items[1])??;
                Some(Node::Extension { path, child })
            }
        }
        17 => {
            let mut children: Box<[Option<Link>; 16]> = Box::default();
            for (slot, it) in children.iter_mut().zip(items) {
                *slot = link_of(it)?;
            }
            let value = items[16].as_bytes()?;
            Some(Node::Branch {
                children,
                value: (!value.is_empty()).then(|| value.to_vec()),
            })
        }
        _ => None,
    }
}

/// A child reference: empty, a 32-byte hash, or an inline node list.
/// The outer `None` rejects; `Some(None)` is an empty slot.
fn link_of(item: &Item) -> Option<Option<Link>> {
    match item {
        Item::List(_) => Some(Some(Link::Node(Box::new(node_of(item)?)))),
        Item::Bytes(b) if b.is_empty() => Some(None),
        Item::Bytes(b) => Some(Some(Link::Hash(B256::new(b.as_slice().try_into().ok()?)))),
    }
}

/// Asserts both decoders agree on `raw`; returns whether they accept it.
fn agree(raw: &[u8]) -> bool {
    let got = Node::decode(raw).ok();
    assert_eq!(
        got,
        reference_decode(raw),
        "decoders disagree on {raw:02x?}"
    );
    got.is_some()
}

/// Node shapes seen, so the test can assert its tries cover each one.
#[derive(Debug, Default)]
struct Shapes {
    inline_children: usize,
    branch_values: usize,
    extensions: usize,
    long_values: usize,
}

impl Shapes {
    fn count(&mut self, node: &Node) {
        match node {
            Node::Leaf { value, .. } => self.long_values += usize::from(value.len() > 55),
            Node::Extension { child, .. } => {
                self.extensions += 1;
                self.count_link(child);
            }
            Node::Branch { children, value } => {
                self.branch_values += usize::from(value.is_some());
                for child in children.iter().flatten() {
                    self.count_link(child);
                }
            }
        }
    }

    fn count_link(&mut self, link: &Link) {
        if let Link::Node(n) = link {
            self.inline_children += 1;
            self.count(n);
        }
    }
}

/// A sink that checks every hashed node against the reference encoder
/// and decoder, keeps its bytes, and forwards it to a real [`NodeDb`].
struct Recorder {
    db: NodeDb<MemStore>,
    raws: Vec<Vec<u8>>,
    shapes: Shapes,
}

impl NodeSink for Recorder {
    fn sink_node(&mut self, hash: B256, raw: Vec<u8>, node: Node) {
        assert_eq!(raw, rlp::encode(&item_of(&node)), "encoder: {node:?}");
        assert_eq!(raw.len(), node.encoded_len());
        assert_eq!(hash, B256::keccak(&raw));
        assert_eq!(Node::decode(&raw).as_ref(), Ok(&node));
        self.shapes.count(&node);
        self.raws.push(raw.clone());
        self.db.sink_node(hash, raw, node);
    }
}

/// A key from a prefix-heavy space: shared stems make extensions, keys
/// that prefix other keys make branch values, short keys and values
/// make inline children, and an occasional 60-byte key makes a
/// long-form path.
fn key(rng: &mut SplitMix64, stems: &[Vec<u8>]) -> Vec<u8> {
    let mut k = if rng.random_bool(0.05) {
        vec![0u8; 60]
    } else {
        stems[rng.random_index(stems.len())].clone()
    };
    let tail = k.len();
    k.resize(tail + rng.random_range(0..3) as usize, 0);
    rng.fill_bytes(&mut k[tail..]);
    k
}

fn value(rng: &mut SplitMix64) -> Vec<u8> {
    let len = match rng.random_range(0..5) {
        0 => 1,
        1 => rng.random_range(2..8),
        2 => rng.random_range(20..40),
        3 => rng.random_range(56..80),
        _ => rng.random_range(1..4),
    } as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Builds, churns and commits SplitMix64 tries through a [`Recorder`].
fn record(seeds: std::ops::Range<u64>) -> Recorder {
    let mut rec = Recorder {
        db: NodeDb::new(MemStore::new()),
        raws: Vec::new(),
        shapes: Shapes::default(),
    };
    for seed in seeds {
        let mut rng = SplitMix64::new(seed);
        let stems: Vec<Vec<u8>> = (0..6)
            .map(|_| {
                let mut s = vec![0u8; rng.random_range(0..5) as usize];
                rng.fill_bytes(&mut s);
                s
            })
            .collect();
        let mut trie = Trie::empty();
        let mut keys = Vec::new();
        for _ in 0..rng.random_range(1..120) {
            let k = key(&mut rng, &stems);
            trie.insert(&mut rec.db, &k, &value(&mut rng));
            keys.push(k);
        }
        trie.commit_into(&mut rec);
        // Deletes collapse branches and merge paths; the recommit hashes
        // the reshaped spine.
        for k in &keys {
            if rng.random_bool(0.3) {
                trie.remove(&mut rec.db, k);
            } else if rng.random_bool(0.2) {
                trie.insert(&mut rec.db, k, &value(&mut rng));
            }
        }
        trie.commit_into(&mut rec);
    }
    rec
}

#[test]
fn node_is_compact() {
    assert!(std::mem::size_of::<Node>() <= 64);
}

#[test]
fn encoder_matches_item_tree_rlp() {
    let rec = record(0..200);
    let s = &rec.shapes;
    assert!(rec.raws.len() > 1000, "{} nodes", rec.raws.len());
    assert!(s.inline_children > 100, "{s:?}");
    assert!(s.branch_values > 10, "{s:?}");
    assert!(s.extensions > 10, "{s:?}");
    assert!(s.long_values > 10, "{s:?}");
}

#[test]
fn decoder_agrees_on_truncations_and_flips() {
    let rec = record(1000..1040);
    const MASKS: [u8; 6] = [0x01, 0x02, 0x10, 0x40, 0x80, 0xff];
    let (mut accepted, mut rejected) = (0usize, 0usize);
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    };
    for raw in rec.raws.iter().step_by(7) {
        assert!(agree(raw));
        for len in 0..raw.len() {
            tally(agree(&raw[..len]));
        }
        for i in 0..raw.len() {
            for mask in MASKS {
                let mut flipped = raw.clone();
                flipped[i] ^= mask;
                tally(agree(&flipped));
            }
        }
    }
    assert!(accepted > 100 && rejected > 1000, "{accepted} / {rejected}");
}

/// A list of `items`' encodings with a canonical header.
fn list(items: &[&[u8]]) -> Vec<u8> {
    let payload: Vec<u8> = items.concat();
    let mut out = Vec::new();
    rlp::encode_header(true, payload.len(), &mut out);
    out.extend(payload);
    out
}

#[test]
fn decoder_rejects_named_non_canonical_cases() {
    // Each case beside its canonical twin, which both decoders accept.
    let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
        // A single byte below 0x80 wrapped in a string header.
        (vec![0x81, 0x05], list(&[&[0x20], &[0x05]])),
        (list(&[&[0x20], &[0x81, 0x05]]), list(&[&[0x20], &[0x05]])),
        // Long form for a 3-byte payload, as a string and as a list.
        (
            list(&[&[0x20], &[0xb8, 0x03, 1, 2, 3]]),
            list(&[&[0x20], &[0x83, 1, 2, 3]]),
        ),
        (
            vec![0xf8, 0x05, 0x20, 0x83, 1, 2, 3],
            vec![0xc5, 0x20, 0x83, 1, 2, 3],
        ),
        // Trailing bytes.
        (
            [list(&[&[0x20], &[0x05]]), vec![0x00]].concat(),
            list(&[&[0x20], &[0x05]]),
        ),
        // A 3-item list.
        (
            list(&[&[0x20], &[0x05], &[0x06]]),
            list(&[&[0x20], &[0x05]]),
        ),
        // A 31-byte child reference, under an extension and a branch.
        (
            list(&[&[0x11], &[&[0x9f][..], &[7; 31]].concat()]),
            list(&[&[0x11], &[&[0xa0][..], &[7; 32]].concat()]),
        ),
        (
            list(&[&[&[0x9f][..], &[7; 31]].concat(), &[0x80; 16]]),
            list(&[&[&[0xa0][..], &[7; 32]].concat(), &[0x80; 16]]),
        ),
    ];
    for (bad, good) in &cases {
        assert!(!agree(bad), "accepted {bad:02x?}");
        assert!(agree(good), "rejected {good:02x?}");
    }
}
