//! Transactions, blocks and receipts (paper Fig. 3 and Table 4).

use mtpu_primitives::{rlp, Address, B256, U256};

/// A transaction: either a plain value transfer or a smart-contract
/// invocation (SCT), per the paper's Fig. 3 data format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender's transaction serial number.
    pub nonce: u64,
    /// Price paid per unit of gas.
    pub gas_price: U256,
    /// Gas limit of the transaction.
    pub gas_limit: u64,
    /// Sender address (we model a recovered/known sender instead of a
    /// signature; consensus-layer signatures are out of scope).
    pub from: Address,
    /// Receiver address; `None` for contract creation.
    pub to: Option<Address>,
    /// Tokens transferred.
    pub value: U256,
    /// Additional input data: function identifier + encoded arguments.
    pub data: Vec<u8>,
}

impl Transaction {
    /// A minimal value transfer.
    pub fn transfer(from: Address, to: Address, value: U256, nonce: u64) -> Self {
        Transaction {
            nonce,
            gas_price: U256::ONE,
            gas_limit: 21_000,
            from,
            to: Some(to),
            value,
            data: Vec::new(),
        }
    }

    /// A smart-contract invocation with default gas settings.
    pub fn call(from: Address, to: Address, data: Vec<u8>, nonce: u64) -> Self {
        Transaction {
            nonce,
            gas_price: U256::ONE,
            gas_limit: 2_000_000,
            from,
            to: Some(to),
            value: U256::ZERO,
            data,
        }
    }

    /// `true` for smart-contract transactions (nonempty input data or
    /// contract creation).
    pub fn is_sct(&self) -> bool {
        !self.data.is_empty() || self.to.is_none()
    }

    /// The 4-byte entry-function identifier, when present.
    ///
    /// This is the *Input* field's function selector the paper's scheduler
    /// and hotspot optimizer key on (contract address + entry function).
    pub fn selector(&self) -> Option<[u8; 4]> {
        if self.data.len() >= 4 && self.to.is_some() {
            let mut s = [0u8; 4];
            s.copy_from_slice(&self.data[..4]);
            Some(s)
        } else {
            None
        }
    }

    /// RLP encoding (paper: "transactions are network transported and
    /// persisted by recursive length prefix").
    pub fn rlp_encode(&self) -> Vec<u8> {
        rlp::encode_list(&[
            rlp::Item::uint(self.nonce),
            rlp::Item::u256(self.gas_price),
            rlp::Item::uint(self.gas_limit),
            rlp::Item::bytes(self.from.as_bytes().to_vec()),
            rlp::Item::bytes(self.to.map(|a| a.as_bytes().to_vec()).unwrap_or_default()),
            rlp::Item::u256(self.value),
            rlp::Item::bytes(self.data.clone()),
        ])
    }

    /// Length of [`Transaction::rlp_encode`]'s output, computed without
    /// building it.
    pub fn rlp_len(&self) -> usize {
        let to: &[u8] = self.to.as_ref().map_or(&[], |a| a.as_bytes());
        let payload = rlp::encoded_u256_len(U256::from(self.nonce))
            + rlp::encoded_u256_len(self.gas_price)
            + rlp::encoded_u256_len(U256::from(self.gas_limit))
            + rlp::encoded_bytes_len(self.from.as_bytes())
            + rlp::encoded_bytes_len(to)
            + rlp::encoded_u256_len(self.value)
            + rlp::encoded_bytes_len(&self.data);
        rlp::header_len(payload) + payload
    }

    /// Decodes a transaction produced by [`Transaction::rlp_encode`].
    ///
    /// # Errors
    ///
    /// Returns an [`rlp::DecodeError`] on malformed input.
    pub fn rlp_decode(data: &[u8]) -> Result<Self, rlp::DecodeError> {
        let item = rlp::decode(data)?;
        let fields = item.as_list().ok_or(rlp::DecodeError::ExpectedList)?;
        if fields.len() != 7 {
            return Err(rlp::DecodeError::UnexpectedEnd);
        }
        let addr = |b: &[u8]| -> Result<Address, rlp::DecodeError> {
            let mut a = [0u8; 20];
            if b.len() != 20 {
                return Err(rlp::DecodeError::UnexpectedEnd);
            }
            a.copy_from_slice(b);
            Ok(Address::new(a))
        };
        let from = addr(
            fields[3]
                .as_bytes()
                .ok_or(rlp::DecodeError::ExpectedBytes)?,
        )?;
        let to_bytes = fields[4]
            .as_bytes()
            .ok_or(rlp::DecodeError::ExpectedBytes)?;
        let to = if to_bytes.is_empty() {
            None
        } else {
            Some(addr(to_bytes)?)
        };
        Ok(Transaction {
            nonce: fields[0].to_u256()?.low_u64(),
            gas_price: fields[1].to_u256()?,
            gas_limit: fields[2].to_u256()?.low_u64(),
            from,
            to,
            value: fields[5].to_u256()?,
            data: fields[6]
                .as_bytes()
                .ok_or(rlp::DecodeError::ExpectedBytes)?
                .to_vec(),
        })
    }

    /// Transaction hash (keccak of the RLP encoding).
    pub fn hash(&self) -> B256 {
        B256::keccak(&self.rlp_encode())
    }
}

/// Block header fields the EVM exposes (paper Table 4, *Block Header*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number.
    pub height: u64,
    /// Approximate time of block generation.
    pub timestamp: u64,
    /// Miner's address.
    pub coinbase: Address,
    /// Difficulty target of mining.
    pub difficulty: U256,
    /// Gas limit of the block.
    pub gas_limit: u64,
    /// Hashes of the previous 256 blocks, most recent first.
    pub recent_hashes: Vec<B256>,
}

impl Default for BlockHeader {
    fn default() -> Self {
        BlockHeader {
            height: 1,
            timestamp: 1_600_000_000,
            coinbase: Address::from_low_u64(0xc0ffee),
            difficulty: U256::from(0x2000u64),
            gas_limit: 30_000_000,
            recent_hashes: Vec::new(),
        }
    }
}

impl BlockHeader {
    /// `BLOCKHASH` lookup: hash of block `number`, or zero when out of the
    /// 256-block window.
    pub fn block_hash(&self, number: u64) -> B256 {
        if number >= self.height {
            return B256::ZERO;
        }
        let age = (self.height - number - 1) as usize;
        self.recent_hashes.get(age).copied().unwrap_or(B256::ZERO)
    }
}

/// A block: header plus ordered transactions (plus, per the paper §2.2.2,
/// the dependency DAG discovered at consensus time — carried separately by
/// the scheduler crate).
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The ordered transaction list.
    pub transactions: Vec<Transaction>,
}

/// A log record emitted by `LOG0..LOG4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics (0–4).
    pub topics: Vec<B256>,
    /// Opaque data payload.
    pub data: Vec<u8>,
}

/// The receipt generated at the end of transaction execution (held in the
/// paper's Receipt Buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// `true` when execution did not revert or run out of gas.
    pub success: bool,
    /// Gas consumed by the transaction (uniquely determined).
    pub gas_used: u64,
    /// Logs emitted during execution.
    pub logs: Vec<Log>,
    /// Return data of the top-level call.
    pub output: Vec<u8>,
    /// Address of the created contract, for creation transactions.
    pub created: Option<Address>,
}

impl Receipt {
    /// RLP encoding of the receipt (status, gas, logs), as persisted in
    /// the receipt trie / the paper's Receipt Buffer.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let logs: Vec<rlp::Item> = self
            .logs
            .iter()
            .map(|l| {
                rlp::Item::List(vec![
                    rlp::Item::bytes(l.address.as_bytes().to_vec()),
                    rlp::Item::List(
                        l.topics
                            .iter()
                            .map(|t| rlp::Item::bytes(t.as_bytes().to_vec()))
                            .collect(),
                    ),
                    rlp::Item::bytes(l.data.clone()),
                ])
            })
            .collect();
        rlp::encode_list(&[
            rlp::Item::uint(self.success as u64),
            rlp::Item::uint(self.gas_used),
            rlp::Item::List(logs),
        ])
    }
}

impl Block {
    /// RLP encoding of the whole block (header fields + transactions) —
    /// the network/persistence format of the paper's Fig. 3.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let header = rlp::Item::List(vec![
            rlp::Item::uint(self.header.height),
            rlp::Item::uint(self.header.timestamp),
            rlp::Item::bytes(self.header.coinbase.as_bytes().to_vec()),
            rlp::Item::u256(self.header.difficulty),
            rlp::Item::uint(self.header.gas_limit),
        ]);
        let txs = rlp::Item::List(
            self.transactions
                .iter()
                .map(|t| rlp::Item::bytes(t.rlp_encode()))
                .collect(),
        );
        rlp::encode_list(&[header, txs])
    }

    /// Block hash: keccak of the RLP encoding.
    pub fn hash(&self) -> B256 {
        B256::keccak(&self.rlp_encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rlp_round_trip() {
        let tx = Transaction {
            nonce: 42,
            gas_price: U256::from(1_000_000_000u64),
            gas_limit: 90_000,
            from: Address::from_low_u64(1),
            to: Some(Address::from_low_u64(2)),
            value: U256::from(123u64),
            data: vec![0xa9, 0x05, 0x9c, 0xbb, 0x00, 0x01],
        };
        let enc = tx.rlp_encode();
        assert_eq!(Transaction::rlp_decode(&enc).unwrap(), tx);
    }

    #[test]
    fn rlp_round_trip_create() {
        let tx = Transaction {
            nonce: 0,
            gas_price: U256::ONE,
            gas_limit: 100_000,
            from: Address::from_low_u64(9),
            to: None,
            value: U256::ZERO,
            data: vec![0x60, 0x00],
        };
        let dec = Transaction::rlp_decode(&tx.rlp_encode()).unwrap();
        assert_eq!(dec.to, None);
        assert_eq!(dec, tx);
    }

    #[test]
    fn rlp_len_matches_the_encoding_on_edge_cases() {
        let words = [
            U256::ZERO,
            U256::ONE,
            U256::from(0x7fu64),
            U256::from(0x80u64),
            U256::from(0x100u64),
            U256::from(u64::MAX),
            U256::MAX,
        ];
        // Empty, single bytes on both sides of 0x80, the short/long string
        // header boundary (55/56) and lengths with two and three length bytes.
        let datas: Vec<Vec<u8>> = [&[][..], &[0x7f], &[0x80], &[0xaa; 55], &[0xaa; 56]]
            .iter()
            .map(|d| d.to_vec())
            .chain([vec![0x01; 256], vec![0x02; 70_000]])
            .collect();
        for to in [None, Some(Address::from_low_u64(2))] {
            for data in &datas {
                for &word in &words {
                    let tx = Transaction {
                        nonce: word.low_u64(),
                        gas_price: word,
                        gas_limit: word.low_u64(),
                        from: Address::from_low_u64(1),
                        to,
                        value: word,
                        data: data.clone(),
                    };
                    assert_eq!(tx.rlp_len(), tx.rlp_encode().len(), "{tx:?}");
                }
            }
        }
    }

    #[test]
    fn selector_extraction() {
        let tx = Transaction::call(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            vec![0xa9, 0x05, 0x9c, 0xbb, 0xff],
            0,
        );
        assert_eq!(tx.selector(), Some([0xa9, 0x05, 0x9c, 0xbb]));
        let t2 = Transaction::transfer(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            U256::ONE,
            0,
        );
        assert_eq!(t2.selector(), None);
        assert!(!t2.is_sct());
        assert!(tx.is_sct());
    }

    #[test]
    fn tx_hash_changes_with_content() {
        let a = Transaction::transfer(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            U256::ONE,
            0,
        );
        let mut b = a.clone();
        b.nonce = 1;
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn receipt_rlp_is_decodable() {
        let r = Receipt {
            success: true,
            gas_used: 21_000,
            logs: vec![Log {
                address: Address::from_low_u64(5),
                topics: vec![B256::keccak(b"t")],
                data: vec![1, 2, 3],
            }],
            output: vec![],
            created: None,
        };
        let enc = r.rlp_encode();
        let item = mtpu_primitives::rlp::decode(&enc).expect("well-formed");
        let fields = item.as_list().unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].to_u256().unwrap(), U256::ONE);
        assert_eq!(fields[1].to_u256().unwrap(), U256::from(21_000u64));
        assert_eq!(fields[2].as_list().unwrap().len(), 1);
    }

    #[test]
    fn block_hash_commits_to_contents() {
        let mk = |value: u64| Block {
            header: BlockHeader::default(),
            transactions: vec![Transaction::transfer(
                Address::from_low_u64(1),
                Address::from_low_u64(2),
                U256::from(value),
                0,
            )],
        };
        assert_eq!(mk(1).hash(), mk(1).hash());
        assert_ne!(mk(1).hash(), mk(2).hash());
        // Decodable envelope.
        assert!(mtpu_primitives::rlp::decode(&mk(1).rlp_encode()).is_ok());
    }

    #[test]
    fn blockhash_window() {
        let mut h = BlockHeader {
            height: 10,
            ..Default::default()
        };
        h.recent_hashes = (0..5).map(|i| B256::keccak(&[i])).collect();
        assert_eq!(h.block_hash(9), B256::keccak(&[0]));
        assert_eq!(h.block_hash(5), B256::keccak(&[4]));
        assert_eq!(h.block_hash(4), B256::ZERO); // out of recorded window
        assert_eq!(h.block_hash(10), B256::ZERO); // future
    }
}
