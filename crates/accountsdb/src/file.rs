//! The append-only account-storage file format.
//!
//! Each flush produces one immutable, numbered file
//! (`storage/NNNNNN.acc`): an 16-byte header followed by a sequence of
//! records. The files are a write-only durability log: only
//! [`AccountsDb::open`](crate::AccountsDb::open) reads them, replaying
//! them in id order; within and across files, the *latest* record for a
//! location wins — the in-memory index holds only the newest value.
//!
//! Record wire format (all integers big-endian):
//!
//! | tag | layout                                            | meaning            |
//! |-----|---------------------------------------------------|--------------------|
//! | 1   | `addr(20) flags(1) nonce(8) balance(32) hash(32)` | account upsert     |
//! | 2   | `addr(20)`                                        | account tombstone  |
//! | 3   | `addr(20) key(32) value(32)`                      | storage slot write |
//! | 4   | `hash(32) len(4) code(len)`                       | code blob          |
//!
//! Account `flags` bit 0 marks a storage reset: the account was
//! (re-)created, so every slot written under an earlier generation is
//! invisible from this record on. A zero-valued slot record is a
//! tombstone masking any older value of the same slot. Code blobs are
//! content-addressed and written at most once per file set.

use mtpu_primitives::{Address, B256, U256};
use std::sync::Arc;

/// File magic: first 8 header bytes of every storage file.
pub const MAGIC: &[u8; 8] = b"mtpuacc1";
/// Header size: magic plus the u64 flush height.
pub const HEADER_LEN: u64 = 16;

/// Account-record flag bit: prior storage generations are invisible.
pub const FLAG_RESET_STORAGE: u8 = 1;

/// Byte length of an account record's payload (`flags..code_hash`).
const ACCOUNT_PAYLOAD_LEN: usize = 1 + 8 + 32 + 32;

const TAG_ACCOUNT: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
const TAG_SLOT: u8 = 3;
const TAG_CODE: u8 = 4;

/// The resolved per-account metadata stored in an account record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountMeta {
    /// Storage-reset marker (flag bit 0).
    pub reset_storage: bool,
    /// Account nonce.
    pub nonce: u64,
    /// Account balance.
    pub balance: U256,
    /// Code hash exactly as the execution layer reports it (`ZERO` for
    /// never-coded accounts, per EXTCODEHASH semantics).
    pub code_hash: B256,
}

/// Appends the file header for a flush at `height`.
pub fn encode_header(buf: &mut Vec<u8>, height: u64) {
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&height.to_be_bytes());
}

/// Decodes an account payload previously written by [`Record::encode`].
fn decode_account_payload(bytes: &[u8; ACCOUNT_PAYLOAD_LEN]) -> AccountMeta {
    AccountMeta {
        reset_storage: bytes[0] & FLAG_RESET_STORAGE != 0,
        nonce: u64::from_be_bytes(bytes[1..9].try_into().expect("8 bytes")),
        balance: U256::from_be_bytes(bytes[9..41].try_into().expect("32 bytes")),
        code_hash: B256::new(bytes[41..73].try_into().expect("32 bytes")),
    }
}

/// One record: what a flush encodes and [`replay`] decodes, and what
/// absorb and replay alike apply to the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Account upsert.
    Account {
        /// Account address.
        addr: Address,
        /// Decoded metadata.
        meta: AccountMeta,
    },
    /// Account deletion.
    Tombstone {
        /// Account address.
        addr: Address,
    },
    /// Storage-slot write.
    Slot {
        /// Account address.
        addr: Address,
        /// Slot key.
        key: U256,
        /// Slot value (zero = cleared).
        value: U256,
    },
    /// Code blob.
    Code {
        /// keccak(code).
        hash: B256,
        /// The blob.
        code: Arc<Vec<u8>>,
    },
}

impl Record {
    /// Appends the record in the wire format [`replay`] reads back.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Account { addr, meta } => {
                buf.push(TAG_ACCOUNT);
                buf.extend_from_slice(addr.as_bytes());
                buf.push(if meta.reset_storage {
                    FLAG_RESET_STORAGE
                } else {
                    0
                });
                buf.extend_from_slice(&meta.nonce.to_be_bytes());
                buf.extend_from_slice(&meta.balance.to_be_bytes());
                buf.extend_from_slice(meta.code_hash.as_bytes());
            }
            Record::Tombstone { addr } => {
                buf.push(TAG_TOMBSTONE);
                buf.extend_from_slice(addr.as_bytes());
            }
            Record::Slot { addr, key, value } => {
                buf.push(TAG_SLOT);
                buf.extend_from_slice(addr.as_bytes());
                buf.extend_from_slice(&key.to_be_bytes());
                buf.extend_from_slice(&value.to_be_bytes());
            }
            Record::Code { hash, code } => {
                buf.push(TAG_CODE);
                buf.extend_from_slice(hash.as_bytes());
                buf.extend_from_slice(&(code.len() as u32).to_be_bytes());
                buf.extend_from_slice(code);
            }
        }
    }
}

/// An `InvalidData` error: damaged or unknown on-disk contents.
pub(crate) fn corrupt(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Replays a storage file's committed bytes, yielding every record in
/// write order.
///
/// # Errors
///
/// Fails when the header or any record is malformed or truncated —
/// manifested file contents are complete, so damage here is real
/// corruption, not a crash artifact.
pub fn replay(bytes: &[u8]) -> std::io::Result<Vec<Record>> {
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != MAGIC {
        return Err(corrupt("bad storage file header"));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let tag = bytes[pos];
        pos += 1;
        match tag {
            TAG_ACCOUNT => {
                let addr = read_addr(bytes, pos)?;
                pos += 20;
                let meta: &[u8; ACCOUNT_PAYLOAD_LEN] = bytes
                    .get(pos..pos + ACCOUNT_PAYLOAD_LEN)
                    .and_then(|s| s.try_into().ok())
                    .ok_or_else(|| corrupt("truncated account record"))?;
                records.push(Record::Account {
                    addr,
                    meta: decode_account_payload(meta),
                });
                pos += ACCOUNT_PAYLOAD_LEN;
            }
            TAG_TOMBSTONE => {
                let addr = read_addr(bytes, pos)?;
                pos += 20;
                records.push(Record::Tombstone { addr });
            }
            TAG_SLOT => {
                let addr = read_addr(bytes, pos)?;
                pos += 20;
                let key = read_u256(bytes, pos)?;
                pos += 32;
                let value = read_u256(bytes, pos)?;
                pos += 32;
                records.push(Record::Slot { addr, key, value });
            }
            TAG_CODE => {
                let hash = bytes
                    .get(pos..pos + 32)
                    .map(|s| B256::new(s.try_into().expect("32 bytes")))
                    .ok_or_else(|| corrupt("truncated code hash"))?;
                pos += 32;
                let len = bytes
                    .get(pos..pos + 4)
                    .map(|s| u32::from_be_bytes(s.try_into().expect("4 bytes")))
                    .ok_or_else(|| corrupt("truncated code length"))?;
                pos += 4;
                let code = bytes
                    .get(pos..pos + len as usize)
                    .ok_or_else(|| corrupt("truncated code blob"))?;
                records.push(Record::Code {
                    hash,
                    code: Arc::new(code.to_vec()),
                });
                pos += len as usize;
            }
            other => return Err(corrupt(format!("unknown record tag {other}"))),
        }
    }
    Ok(records)
}

fn read_addr(bytes: &[u8], pos: usize) -> std::io::Result<Address> {
    bytes
        .get(pos..pos + 20)
        .map(|s| Address::new(s.try_into().expect("20 bytes")))
        .ok_or_else(|| corrupt("truncated address"))
}

fn read_u256(bytes: &[u8], pos: usize) -> std::io::Result<U256> {
    bytes
        .get(pos..pos + 32)
        .map(|s| U256::from_be_bytes(s.try_into().expect("32 bytes")))
        .ok_or_else(|| corrupt("truncated word"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_replay() {
        let addr = Address::from_low_u64(7);
        let meta = AccountMeta {
            reset_storage: true,
            nonce: 3,
            balance: U256::from(999u64),
            code_hash: B256::keccak(b"code"),
        };
        let written = vec![
            Record::Code {
                hash: B256::keccak(b"code"),
                code: Arc::new(b"code".to_vec()),
            },
            Record::Account { addr, meta },
            Record::Tombstone {
                addr: Address::from_low_u64(8),
            },
            Record::Slot {
                addr,
                key: U256::from(1u64),
                value: U256::from(55u64),
            },
        ];
        let mut buf = Vec::new();
        encode_header(&mut buf, 42);
        for record in &written {
            record.encode(&mut buf);
        }
        // What the store encodes is what replay reads back.
        assert_eq!(replay(&buf).unwrap(), written);
    }

    #[test]
    fn damaged_input_is_rejected() {
        assert!(replay(b"not-a-file").is_err());
        let mut buf = Vec::new();
        encode_header(&mut buf, 0);
        Record::Tombstone {
            addr: Address::from_low_u64(1),
        }
        .encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(replay(&buf).is_err());
        let mut buf2 = Vec::new();
        encode_header(&mut buf2, 0);
        buf2.push(99); // unknown tag
        assert!(replay(&buf2).is_err());
    }
}
