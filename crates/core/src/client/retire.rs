//! Retirement, and the client's one decrement path: a failed store's pin
//! rollback and the flush of its parked legs go through
//! `EvoStoreClient::decrement`. A retirement's decrements are not the
//! client's: the provider that drops the record applies or sends them.

use super::calls::{settle, take_legs};
use super::*;

impl EvoStoreClient {
    /// Retire a model: drop its record on every replica, in one round.
    /// Each replica that drops it decrements every tensor its owner map
    /// references: the ones it hosts before it replies, the others through
    /// its decrement pump, which sends them to their hosts after the
    /// reply. Tensors still referenced by descendants survive. Reclamation
    /// on other providers trails the retire by the pump's round:
    /// [`crate::Deployment::drain_decrements`] waits for it, and
    /// `gc_audit` and `repair` drain first.
    ///
    /// Legs parked by an earlier failed store's rollback are flushed first
    /// ([`EvoStoreClient::flush_pending_decrements`]).
    pub fn retire_model(&self, model: ModelId) -> Result<RetireOutcome> {
        self.with_root_op("retire", "retire_model", &self.telemetry.retire, || {
            // Opportunistically drain rollback legs parked by earlier failures.
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
            Ok(RetireOutcome {
                refs_dropped: reply.owner_map.all_tensor_keys().len(),
                tensors_reclaimed: 0,
                refs_parked: 0,
            })
        })
    }

    /// Roll back the pin legs that succeeded before a store aborted. A
    /// rollback leg still failing transiently after its retries is parked,
    /// so a later flush settles it instead of leaking the pin; a
    /// permanently failing one can never apply.
    pub(super) fn unpin(&self, pinned: Vec<(EndpointId, RefsRequest)>) {
        let legs = pinned
            .into_iter()
            .map(|(ep, pin)| (ep, RefsRequest::new(pin.keys)))
            .collect();
        self.decrement(legs, true);
    }

    /// The client's one `DECR_REFS` round: every leg in flight at once,
    /// then the legs that failed transiently are parked until the next
    /// [`EvoStoreClient::flush_pending_decrements`]. Each keeps its op id,
    /// so the re-issue is idempotent. `first_park` counts the parked
    /// references in `parked_decrements`; a flush re-parking legs that
    /// were counted when first parked passes `false`. Returns the
    /// references the legs that succeeded carried.
    fn decrement(&self, legs: Vec<(EndpointId, RefsRequest)>, first_park: bool) -> usize {
        if legs.is_empty() {
            return 0;
        }
        let settled = settle(self.fan_out(&legs, methods::DecrRefs));
        let applied = settled.ok.iter().map(|&(i, _)| legs[i].1.keys.len()).sum();
        let parked = take_legs(legs, settled.transient.iter().map(|&(i, ..)| i));
        if !parked.is_empty() {
            if first_park {
                let parked_refs: usize = parked.iter().map(|(_, req)| req.keys.len()).sum();
                self.telemetry.parked_decrements.add(parked_refs as u64);
            }
            self.pending_decrements.lock().extend(parked);
        }
        applied
    }

    /// Re-issue every parked rollback decrement. Legs that fail
    /// transiently again are re-parked; permanently failing legs are
    /// dropped (they can never succeed). Returns the number of tensor
    /// references successfully decremented.
    pub fn flush_pending_decrements(&self) -> Result<usize> {
        let pending = std::mem::take(&mut *self.pending_decrements.lock());
        Ok(self.decrement(pending, false))
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
