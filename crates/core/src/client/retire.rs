//! Retirement and the one decrement path: a retire's decrements, a failed
//! store's pin rollback and the flush of parked legs all go through
//! `EvoStoreClient::decrement`.

use super::calls::{settle, take_legs};
use super::*;

/// What one round of decrement legs did.
#[derive(Default)]
struct Decremented {
    /// Tensor references the legs that succeeded carried.
    applied: usize,
    /// Tensors physically reclaimed.
    reclaimed: usize,
    /// Tensor references parked for the next flush.
    parked: usize,
    /// The first (in leg order) failure no retry can clear.
    permanent: Option<EvoError>,
}

impl EvoStoreClient {
    /// Retire a model: drop its metadata, then decrement the reference
    /// count of every tensor its owner map references (fanned out to the
    /// hosting providers in parallel). Tensors still referenced by
    /// descendants survive.
    ///
    /// Decrement legs that fail *transiently* (provider down, timing
    /// out) do not fail the retirement: once the metadata drop
    /// succeeded, the model is gone, so the pending decrements are
    /// parked in a client-side queue and re-issued on the next
    /// retirement or an explicit
    /// [`EvoStoreClient::flush_pending_decrements`] — GC is eventually
    /// consistent under provider failures instead of leaking pins.
    /// Retrying a timed-out leg (whose first delivery may have applied)
    /// is safe: each decrement carries a [`RefsRequest::op_id`] the
    /// provider deduplicates on, so no tensor is ever decremented twice
    /// for one retirement. A *permanently* failing leg surfaces as an
    /// error — but only after every other leg has been settled (and
    /// parked if transient).
    pub fn retire_model(&self, model: ModelId) -> Result<RetireOutcome> {
        self.with_root_op("retire", "retire_model", &self.telemetry.retire, || {
            // Opportunistically drain decrements parked by earlier failures.
            let _ = self.flush_pending_decrements();
            // Drop the record on every replica. One success suffices: a
            // replica that is down keeps a stale record, which the tombstone
            // recorded by its reachable siblings removes during repair.
            let chain = self.replicas_of(model);
            let meta_legs = self.fan_out(
                &chain
                    .iter()
                    .map(|&ep| (ep, RetireMetaRequest { model }))
                    .collect::<Vec<_>>(),
                methods::RetireMeta,
            );
            let mut meta_legs = settle(meta_legs);
            if meta_legs.ok.is_empty() {
                return Err(meta_legs
                    .first_error()
                    .expect("replica chain is never empty"));
            }
            let (_, reply) = meta_legs.ok.swap_remove(0);
            let keys = reply.owner_map.all_tensor_keys();
            let refs_dropped = keys.len();
            // Decrement on every replica of every referenced key. Each leg
            // carries a *deterministic* op id derived from (model, record
            // timestamp, target provider): if the leg parks and repair
            // settles the counts first, the eventual re-issue hits the fence
            // the repair pass seeded and no-ops instead of double-applying.
            let legs = self
                .group_by_replicas(keys)
                .map(|(idx, keys)| {
                    let op_id = RefsRequest::retirement_op_id(model, reply.timestamp, idx);
                    (self.providers[idx], RefsRequest::with_op_id(op_id, keys))
                })
                .collect();
            // Every leg is settled before the outcome is decided: returning
            // early on a permanent failure would discard later transient legs
            // without parking them, pinning those refcounts forever.
            let done = self.decrement(legs, true);
            if let Some(e) = done.permanent {
                return Err(e);
            }
            Ok(RetireOutcome {
                refs_dropped,
                tensors_reclaimed: done.reclaimed,
                refs_parked: done.parked,
            })
        })
    }

    /// Roll back the pin legs that succeeded before a store aborted. A
    /// rollback leg still failing transiently after its retries is parked
    /// like a retirement's decrement, so a later flush settles it instead
    /// of leaking the pin; a permanently failing one can never apply.
    pub(super) fn unpin(&self, pinned: Vec<(EndpointId, RefsRequest)>) {
        let legs = pinned
            .into_iter()
            .map(|(ep, pin)| (ep, RefsRequest::new(pin.keys)))
            .collect();
        self.decrement(legs, true);
    }

    /// The one `DECR_REFS` round: every leg in flight at once, then the
    /// legs that failed transiently are parked until the next
    /// [`EvoStoreClient::flush_pending_decrements`]. Each keeps its op id,
    /// so the re-issue is idempotent. `first_park` counts the parked
    /// references in `parked_decrements`; a flush re-parking legs that
    /// were counted when first parked passes `false`.
    fn decrement(&self, legs: Vec<(EndpointId, RefsRequest)>, first_park: bool) -> Decremented {
        if legs.is_empty() {
            return Decremented::default();
        }
        let settled = settle(self.fan_out(&legs, methods::DecrRefs));
        let applied = settled.ok.iter().map(|&(i, _)| legs[i].1.keys.len()).sum();
        let reclaimed = settled.ok.iter().map(|(_, r)| r.reclaimed).sum();
        let parked = take_legs(legs, settled.transient.iter().map(|&(i, ..)| i));
        let parked_refs = parked.iter().map(|(_, req)| req.keys.len()).sum();
        if !parked.is_empty() {
            if first_park {
                self.telemetry.parked_decrements.add(parked_refs as u64);
            }
            self.pending_decrements.lock().extend(parked);
        }
        Decremented {
            applied,
            reclaimed,
            parked: parked_refs,
            permanent: settled.permanent.map(|(_, e)| e),
        }
    }

    /// Re-issue every parked refcount decrement. Legs that fail
    /// transiently again are re-parked; permanently failing legs are
    /// dropped (they can never succeed). Returns the number of tensor
    /// references successfully decremented.
    pub fn flush_pending_decrements(&self) -> Result<usize> {
        let pending = std::mem::take(&mut *self.pending_decrements.lock());
        Ok(self.decrement(pending, false).applied)
    }

    /// Tensor references currently parked awaiting a successful
    /// decrement.
    pub fn pending_decrement_count(&self) -> usize {
        self.pending_decrements
            .lock()
            .iter()
            .map(|(_, r)| r.keys.len())
            .sum()
    }
}
