//! Call shapes and placement: the root-op envelope, the typed calls under
//! the client's retry policy, the replica-chain walk, the quorum
//! broadcast, and where a model's replicas live.

use super::*;

/// The legs of a fan-out, sorted by what a caller may do about each.
/// What a transient failure *means* — replication debt, a parked
/// decrement, an unreachable catalog — is the caller's policy.
pub(super) struct Settled<T> {
    /// Replies, each with the index of the leg it answered.
    pub(super) ok: Vec<(usize, T)>,
    /// Legs that may succeed on a retry: index, target, error.
    pub(super) transient: Vec<(usize, EndpointId, EvoError)>,
    /// The first (in leg order) failure no retry can clear, and its leg.
    pub(super) permanent: Option<(usize, EvoError)>,
}

pub(super) fn settle<T>(legs: LegResults<T>) -> Settled<T> {
    let mut settled = Settled {
        ok: Vec::with_capacity(legs.len()),
        transient: Vec::new(),
        permanent: None,
    };
    for (i, (ep, leg)) in legs.into_iter().enumerate() {
        match leg {
            Ok(reply) => settled.ok.push((i, reply)),
            Err(e) if e.is_transient() => settled.transient.push((i, ep, e.into())),
            Err(e) => {
                settled.permanent.get_or_insert((i, e.into()));
            }
        }
    }
    settled
}

impl<T> Settled<T> {
    /// The targets of the legs that failed transiently.
    pub(super) fn unreachable(&self) -> Vec<EndpointId> {
        self.transient.iter().map(|(_, ep, _)| *ep).collect()
    }

    /// The failure of the earliest failed leg, of either class.
    pub(super) fn first_error(self) -> Option<EvoError> {
        let transient = self.transient.into_iter().next().map(|(i, _, e)| (i, e));
        match (transient, self.permanent) {
            (Some((t, transient)), Some((p, permanent))) => {
                Some(if t < p { transient } else { permanent })
            }
            (transient, permanent) => transient.or(permanent).map(|(_, e)| e),
        }
    }
}

/// The legs at `picked` (ascending leg indices, as [`Settled`] lists
/// them), moved out of `legs` without a copy.
pub(super) fn take_legs<L>(legs: Vec<L>, picked: impl IntoIterator<Item = usize>) -> Vec<L> {
    let mut picked = picked.into_iter().peekable();
    legs.into_iter()
        .enumerate()
        .filter_map(|(i, leg)| picked.next_if_eq(&i).map(|_| leg))
        .collect()
}

impl EvoStoreClient {
    /// The replica chain hosting `model`'s metadata and self-owned
    /// tensors, primary first (successor chain over the static hash
    /// ring).
    pub(super) fn replicas_of(&self, model: ModelId) -> Vec<EndpointId> {
        self.chain_at(model.provider_for(self.providers.len()))
    }

    /// The replica chain rooted at provider `primary`, primary first.
    pub(super) fn chain_at(&self, primary: usize) -> Vec<EndpointId> {
        let chain = self.replication.chain(primary, self.providers.len());
        chain.into_iter().map(|i| self.providers[i]).collect()
    }

    /// A trace handle for the ambiently active operation, if any — every
    /// RPC attempt issued under it opens a child span on this client's
    /// tracer. Top-level operations install their root span ambiently
    /// ([`set_current_trace`]) so the helpers below pick it up without
    /// signature changes.
    fn trace_handle(&self) -> Option<TraceHandle<'_>> {
        current_trace().map(|parent| TraceHandle::new(&self.tracer, parent))
    }

    /// Run `f` as a fully accounted top-level operation of `class`: open
    /// a root span named `op` and install it ambiently so every RPC
    /// issued inside files its attempt spans under it, time the op from
    /// the tracer's clock into `hist` (with the root context ambient, so
    /// the histogram bucket retains a joinable exemplar), record an SLO
    /// sample for the class, and fold a fresh cost cell into the op
    /// ledger. Under [`TelemetryLevel::Minimal`] all of that collapses
    /// to a bare histogram timing.
    pub(super) fn with_root_op<T>(
        &self,
        class: &'static str,
        op: &'static str,
        hist: &crate::telemetry::LatencyHistogram,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if self.telemetry_level == TelemetryLevel::Minimal {
            let t0 = std::time::Instant::now();
            let out = f();
            hist.record(t0.elapsed());
            return out;
        }
        let costs = OpCosts::new();
        let mut root = self.tracer.start_root(op);
        let start_us = self.tracer.now_us();
        let out = {
            let _amb = set_current_trace(Some(root.ctx()));
            let _costs = install_costs(Some(Arc::clone(&costs)));
            f()
        };
        let latency_us = self.tracer.now_us().saturating_sub(start_us);
        {
            // Re-install the root context just for the histogram record,
            // so the bucket's exemplar points at this op's span tree.
            let _amb = set_current_trace(Some(root.ctx()));
            hist.record_us(latency_us);
        }
        if let Some(slo) = &self.slo {
            slo.record(class, latency_us, out.is_ok());
        }
        self.ledger.finish_op(class, out.is_ok(), &costs);
        if let Err(e) = &out {
            root.fail(e.to_string());
        }
        root.finish();
        out
    }

    /// Typed unary call under this client's retry policy.
    pub(super) fn unary<M: Method>(
        &self,
        target: EndpointId,
        method: M,
        req: &M::Request,
    ) -> Result<M::Reply> {
        evostore_rpc::unary(
            &self.fabric,
            target,
            method,
            req,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
        .map_err(EvoError::from)
    }

    /// The one replica-chain walk. `primary` is how the attempt against
    /// `chain[0]` ended; on failure, `attempt` runs against the rest of
    /// the chain in turn until one replica serves it, and the serving
    /// endpoint comes back with the value. The attempt is the whole job —
    /// call, bulk pull, decode — and any failure moves on: a replica that
    /// is down, one that missed the write and answers "not found", a pull
    /// lost in transit, a record that fails its check. When every replica
    /// fails, the last error is returned (for a genuinely absent value all
    /// replicas agree). Each hop to a successor charges one failover to
    /// the op ledger; a value served past the primary is filed in the
    /// flight ring.
    pub(super) fn fail_over<T>(
        &self,
        chain: &[EndpointId],
        what: &str,
        primary: Result<T>,
        attempt: impl Fn(EndpointId) -> Result<T>,
    ) -> Result<(EndpointId, T)> {
        let mut last_err = match primary {
            Ok(out) => return Ok((chain[0], out)),
            Err(e) => e,
        };
        for &target in &chain[1..] {
            evostore_obs::ledger::add_failovers(1);
            match attempt(target) {
                Ok(out) => {
                    let trace_id = current_trace().map(|c| c.trace_id).unwrap_or(0);
                    self.tracer
                        .recorder()
                        .note_failover(trace_id, chain[0].0, target.0, what);
                    return Ok((target, out));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// [`EvoStoreClient::fail_over`] for a read: a read served past the
    /// primary is counted in `read_failovers`.
    pub(super) fn read_over<T>(
        &self,
        chain: &[EndpointId],
        what: &str,
        primary: Result<T>,
        attempt: impl Fn(EndpointId) -> Result<T>,
    ) -> Result<T> {
        let (served_by, out) = self.fail_over(chain, what, primary, attempt)?;
        if served_by != chain[0] {
            self.telemetry.read_failovers.add(1);
        }
        Ok(out)
    }

    /// Typed fan-out (a distinct request per target, all in flight at
    /// once) under this client's retry policy; per-leg results in input
    /// order.
    pub(super) fn fan_out<M: Method>(
        &self,
        legs: &[(EndpointId, M::Request)],
        method: M,
    ) -> LegResults<M::Reply> {
        evostore_rpc::fan_out(
            &self.fabric,
            legs,
            method,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
    }

    /// Typed broadcast of `req` to every provider under this client's
    /// retry policy; per-leg results in provider order.
    pub(super) fn broadcast<M: Method>(
        &self,
        method: M,
        req: &M::Request,
    ) -> Result<LegResults<M::Reply>> {
        evostore_rpc::broadcast(
            &self.fabric,
            &self.providers,
            method,
            req,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
        .map_err(EvoError::from)
    }

    /// Broadcast `req` to every provider, apply quorum semantics:
    /// permanent failures abort; transient failures count against the
    /// quorum. With at least `min_quorum` replies the collective
    /// succeeds, reporting the unreachable providers alongside.
    pub(super) fn quorum_broadcast<M: Method>(
        &self,
        method: M,
        req: &M::Request,
    ) -> Result<(Vec<M::Reply>, Vec<EndpointId>)> {
        let legs = settle(self.broadcast(method, req)?);
        let mut unreachable = legs.unreachable();
        if let Some((_, e)) = legs.permanent {
            return Err(e);
        }
        // Replicated coverage: when every model still has at least one
        // reachable replica, the reachable catalogs jointly cover the
        // full deployment — the answer is complete, not degraded, and
        // quorum does not apply. A broadcast's leg index is its
        // provider's index.
        let down: Vec<usize> = legs.transient.iter().map(|&(i, ..)| i).collect();
        if !down.is_empty() && self.replication.fully_covers(self.providers.len(), &down) {
            unreachable.clear();
        }
        let replies: Vec<M::Reply> = legs.ok.into_iter().map(|(_, reply)| reply).collect();
        if replies.len() < self.min_quorum && !unreachable.is_empty() {
            return Err(EvoError::PartialFailure {
                failed: unreachable,
            });
        }
        if !unreachable.is_empty() {
            self.telemetry.degraded_queries.add(1);
            evostore_obs::ledger::add_degraded_legs(unreachable.len() as u64);
            let trace_id = current_trace().map(|c| c.trace_id).unwrap_or(0);
            self.tracer.recorder().note_degraded(
                trace_id,
                M::METHOD,
                unreachable.iter().map(|ep| ep.0).collect(),
            );
        }
        Ok((replies, unreachable))
    }
}
