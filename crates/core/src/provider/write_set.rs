//! One write's references, kept together: every record a provider write
//! puts (at count 1) and every delta base it pins joins its [`WriteSet`],
//! which [`ProviderState::land`] commits with the write's record or gives
//! back whole. The one module that puts into the tensor store.

use std::collections::HashMap;

use bytes::Bytes;
use evostore_kv::KvBackend;
use evostore_tensor::{ContentHash, TensorKey};

use super::transfer::wire_hash;
use super::ProviderState;
use crate::messages::TransferRecord;

/// A record as a write puts it: the rope it arrived as (a delta: its one
/// blob), or a chunked record's transfer manifest with the chunks a sync
/// pushed (by content hash) for those the store lacks.
pub(super) enum Payload<'p> {
    Rope(Vec<Bytes>),
    Chunks(&'p TransferRecord, &'p HashMap<u128, Bytes>),
}

/// The counted references one write holds, oldest first.
pub(super) struct WriteSet<'s> {
    state: &'s ProviderState,
    held: Vec<TensorKey>,
}

impl ProviderState {
    /// Run one write, whose last step installs its record (or persists an
    /// attach): `Ok` commits the set. On `Err` the set's references are
    /// released, newest first, and the error returned, naming a failed
    /// release too.
    pub(super) fn land<T>(
        &self,
        write: impl FnOnce(&mut WriteSet<'_>) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut set = WriteSet {
            state: self,
            held: Vec::new(),
        };
        write(&mut set).map_err(|failed| {
            set.held.reverse();
            match self.release_all(&set.held) {
                Ok(()) => failed,
                Err(e) => format!("{failed}; giving back its references failed: {e}"),
            }
        })
    }
}

impl WriteSet<'_> {
    /// Take over a pin already held on `base` (the store's encoder pins
    /// each base before it reads it).
    pub(super) fn pinned(&mut self, base: TensorKey) {
        self.held.push(base);
    }

    /// Put `payload` under `key` at count 1. A delta on `base` is put after
    /// the set pinned `base`, and that pin becomes the delta's reference.
    /// A `key` still referenced — a re-stored model id whose old tensors a
    /// child inherits or a delta keeps as its base — is refused, naming it:
    /// overwriting it would change what its holders read.
    pub(super) fn write(
        &mut self,
        key: TensorKey,
        payload: Payload<'_>,
        base: Option<TensorKey>,
    ) -> Result<(), String> {
        let pin = match base.map(|base| self.held.iter().rposition(|k| *k == base)) {
            Some(None) => return Err(format!("delta {key}: its base is not pinned")),
            pin => pin.flatten(),
        };
        let enc = key.encode();
        let tensors = &self.state.tensors;
        match payload {
            Payload::Rope(record) => {
                tensors.put_fresh_with(&enc, 1, |kv| kv.put_segments(&enc, record))
            }
            Payload::Chunks(rec, provided) => {
                let (chunks, total) = (self.state.chunk_store()?, rec.total as usize);
                let hashes: Vec<ContentHash> = rec.hashes.iter().map(wire_hash).collect();
                tensors.put_fresh_with(&enc, 1, |_| {
                    chunks.put_manifest(&enc, total, &hashes, provided)
                })
            }
        }
        .map_err(|e| format!("store tensor {key}: {e}"))?;
        match pin {
            None => self.held.push(key),
            Some(at) => {
                self.held[at] = key;
                self.state.counters.delta_stored.add(1);
            }
        }
        Ok(())
    }

    /// A sync leg's write, a delta's base pinned just before, unless a
    /// record is already there: it keeps its count, since the refs sync
    /// that follows installs the authoritative value. Whether it wrote.
    pub(super) fn write_absent(
        &mut self,
        key: TensorKey,
        base: Option<TensorKey>,
        payload: Payload<'_>,
    ) -> Result<bool, String> {
        if self.state.tensors.contains(&key.encode()) {
            return Ok(false);
        }
        if let Some(base) = base {
            let pinned = self.state.tensors.incr(&base.encode());
            pinned.map_err(|e| format!("pin delta base {base}: {e}"))?;
            self.held.push(base);
        }
        self.write(key, payload, base)?;
        Ok(true)
    }
}
