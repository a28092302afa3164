//! Anti-entropy repair and the GC audit, both read from one reference
//! census of the providers' digests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use evostore_obs::ledger::install_costs;
use evostore_obs::OpCosts;
use evostore_rpc::{EndpointId, RetryPolicy};
use evostore_tensor::{ModelId, TensorKey};

use super::Deployment;
use crate::messages::{
    DigestReply, DigestRequest, ModelDigest, SyncRefsRequest, SyncRetireRequest, Tombstone,
};
use crate::methods;
use crate::replication::ReplicationPolicy;

/// What one [`Deployment::repair`] pass did.
#[derive(Debug, Default, Clone)]
pub struct RepairReport {
    /// Providers that did not answer the digest broadcast (their
    /// replicas could not be repaired this pass).
    pub unreachable: Vec<EndpointId>,
    /// Records re-replicated onto providers that missed or held stale
    /// copies of them.
    pub models_synced: usize,
    /// Stale records removed because a sibling replica witnessed the
    /// retirement.
    pub retirements_applied: usize,
    /// Tensor reference counts corrected to the authoritative value.
    pub refs_adjusted: usize,
    /// Orphaned tensor payloads reclaimed (only when every provider
    /// contributed a digest).
    pub orphans_removed: usize,
    /// Referenced payloads that could not be installed because no live
    /// replica holds them (data loss beyond the replication factor).
    pub missing_payloads: usize,
}

impl Deployment {
    /// Cross-provider garbage-collection audit against the strict census:
    /// the replicas of every record agree on it and it is on its full
    /// chain, and every provider passes
    /// [`audit_refs`](crate::provider::ProviderState::audit_refs) — every
    /// referenced tensor hosted on its owner's chain, nothing hosted
    /// off-chain or unreferenced, every count the census's owner-map
    /// count plus the local deltas encoded against the key, and every
    /// delta chain as deep as its header says and within
    /// [`crate::policy::MAX_CHAIN_DEPTH`].
    pub fn gc_audit(&self) -> Result<(), String> {
        let digests = self.digests()?;
        let census = Census::take(&digests, self.replication, digests.len(), Mode::Strict)?;
        for (i, p) in self.providers.iter().enumerate() {
            p.state.audit_refs(census.counts_on(i))?;
        }
        Ok(())
    }

    /// Every provider's digest, taken in process: what the strict census
    /// is built from.
    pub(super) fn digests(&self) -> Result<Vec<DigestReply>, String> {
        self.providers
            .iter()
            .map(|p| p.state.handle_digest(DigestRequest {}))
            .collect()
    }

    // ---- anti-entropy repair ---------------------------------------------

    /// One anti-entropy pass over every reachable provider: exchange
    /// digests, converge each replica chain on the newest incarnation of
    /// every record, propagate witnessed retirements (fencing their
    /// parked decrements), install authoritative reference counts, and —
    /// when every provider contributed a digest — reclaim orphaned
    /// payloads.
    ///
    /// An administrative pass: run it against a quiescent deployment
    /// (no concurrent stores/retires), typically after a failed provider
    /// comes back. Idempotent — a second pass on a healthy deployment
    /// reports zero work.
    pub fn repair(&self) -> Result<RepairReport, String> {
        let start_us = self.obs.clock().now_us();
        let costs = OpCosts::new();
        let out = {
            let _costs = install_costs(Some(Arc::clone(&costs)));
            self.repair_inner()
        };
        let latency_us = self.obs.clock().now_us().saturating_sub(start_us);
        self.obs.slo().record("repair", latency_us, out.is_ok());
        self.ledger.finish_op("repair", out.is_ok(), &costs);
        out
    }

    fn repair_inner(&self) -> Result<RepairReport, String> {
        let retry = RetryPolicy::default().with_timeout(Duration::from_secs(30));
        let n = self.provider_ids.len();
        let rep = self.replication;
        let mut report = RepairReport::default();

        // 1. Digest every provider; remember who is unreachable.
        let legs = evostore_rpc::broadcast(
            &self.fabric,
            &self.provider_ids,
            methods::Digest,
            &DigestRequest {},
            &retry,
            None,
            None,
        )
        .map_err(|e| format!("digest broadcast: {e}"))?;
        let mut digests: Vec<DigestReply> = Vec::new();
        for (ep, leg) in legs {
            match leg {
                Ok(d) => digests.push(d),
                Err(e) if e.is_transient() => report.unreachable.push(ep),
                Err(e) => return Err(format!("digest from {ep}: {e}")),
            }
        }
        if digests.is_empty() {
            return Err("no provider answered the digest broadcast".into());
        }
        digests.sort_unstable_by_key(|d| d.provider_index);

        // 2. The converged census: newest incarnation of every record,
        // retired ones dropped.
        let census = Census::take(&digests, rep, n, Mode::Converge)?;
        // Orphan pruning is only safe with a complete digest: with a
        // provider missing, a key could look orphaned merely because
        // every record referencing it lives on the unreachable provider.
        let full_coverage = report.unreachable.is_empty();
        let mut models: Vec<&ModelId> = census.records.keys().collect();
        models.sort_unstable();

        // 3. Converge each live provider.
        for digest in &digests {
            let idx = digest.provider_index;
            let ep = self.provider_ids[idx];

            // 3a. Propagate retirements first (removes stale records and
            // fences their parked decrement legs).
            if !census.tombstones.is_empty() {
                let reply = evostore_rpc::unary(
                    &self.fabric,
                    ep,
                    methods::SyncRetire,
                    &SyncRetireRequest {
                        tombstones: census.tombstones.clone(),
                    },
                    &retry,
                    None,
                    None,
                )
                .map_err(|e| format!("sync_retire on provider {idx}: {e}"))?;
                report.retirements_applied += reply.removed;
            }

            // 3b. Re-replicate records this provider should hold but
            // missed (or holds stale).
            let local: HashMap<ModelId, (u64, usize)> = digest
                .models
                .iter()
                .map(|m| (m.model, m.incarnation()))
                .collect();
            for &model in &models {
                let live = &census.records[model];
                if live.source == idx
                    || !rep.is_replica(*model, n, idx)
                    || local.get(model) >= Some(&live.digest.incarnation())
                {
                    continue;
                }
                let optimizer_keys = &live.digest.optimizer_keys;
                match self.sync_model_to(*model, optimizer_keys, live.source, idx, &retry)? {
                    true => report.models_synced += 1,
                    false => report.missing_payloads += 1,
                }
            }

            // 3c. Install the census's counts for every key placed here;
            // reclaim orphans when the digest was complete.
            let reply = evostore_rpc::unary(
                &self.fabric,
                ep,
                methods::SyncRefs,
                &SyncRefsRequest {
                    entries: census.counts_on(idx),
                    prune_unlisted: full_coverage,
                },
                &retry,
                None,
                None,
            )
            .map_err(|e| format!("sync_refs on provider {idx}: {e}"))?;
            report.refs_adjusted += reply.adjusted;
            report.orphans_removed += reply.removed;
            report.missing_payloads += reply.missing;
        }
        Ok(report)
    }
}

/// What references what, taken from the providers' digests: every live
/// record and how many of them name each tensor key (owner map and
/// optimizer state, one reference per naming). `reopen`, `repair` and
/// `gc_audit` read every expected count from it.
pub(super) struct Census<'a> {
    /// The live records, each with a provider holding it.
    records: HashMap<ModelId, Live<'a>>,
    /// The newest tombstone of every retired model ([`Mode::Converge`]).
    tombstones: Vec<Tombstone>,
    /// Live records naming each key.
    counts: HashMap<TensorKey, u64>,
    replication: ReplicationPolicy,
    providers: usize,
}

/// One live record of a [`Census`].
struct Live<'a> {
    /// Its newest incarnation's digest.
    digest: &'a ModelDigest,
    /// A provider holding that incarnation: repair's copy source.
    source: usize,
}

/// What a [`Census`] makes of replicas that disagree.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Mode {
    /// `reopen` and `gc_audit`, from every provider: the replicas of a
    /// record must agree on its incarnation and optimizer state, and it
    /// must be on every member of its chain.
    Strict,
    /// `repair`, from the digests that came back: the newest incarnation
    /// wins, and a record a tombstone covers is not live.
    Converge,
}

impl<'a> Census<'a> {
    /// The census of `digests` from a deployment of `providers`
    /// providers, taken in `mode`.
    pub(super) fn take(
        digests: &'a [DigestReply],
        replication: ReplicationPolicy,
        providers: usize,
        mode: Mode,
    ) -> Result<Self, String> {
        let mut records: HashMap<ModelId, Live<'a>> = HashMap::new();
        let mut holders: HashMap<ModelId, Vec<usize>> = HashMap::new();
        for d in digests {
            let i = d.provider_index;
            for m in &d.models {
                holders.entry(m.model).or_default().push(i);
                if let Some(live) = records.get(&m.model) {
                    let held = live.digest;
                    let agree =
                        (held.timestamp, &held.optimizer_keys) == (m.timestamp, &m.optimizer_keys);
                    if mode == Mode::Strict && !agree {
                        return Err(format!(
                            "model {}: replicas diverge on provider {i} (stamp {} vs {}, {} vs \
                             {} optimizer keys) — run repair()",
                            m.model,
                            held.timestamp,
                            m.timestamp,
                            held.optimizer_keys.len(),
                            m.optimizer_keys.len()
                        ));
                    }
                    if held.incarnation() >= m.incarnation() {
                        continue;
                    }
                }
                records.insert(
                    m.model,
                    Live {
                        digest: m,
                        source: i,
                    },
                );
            }
        }
        let mut tombstones: HashMap<ModelId, Tombstone> = HashMap::new();
        match mode {
            Mode::Strict => {
                for (model, held) in &holders {
                    let chain = replication.replicas(*model, providers);
                    if let Some(idx) = chain.into_iter().find(|idx| !held.contains(idx)) {
                        return Err(format!(
                            "model {model} missing on replica provider {idx} — run repair()"
                        ));
                    }
                }
            }
            Mode::Converge => {
                for t in digests.iter().flat_map(|d| &d.tombstones) {
                    let newest = tombstones.entry(t.model).or_insert(*t);
                    if (t.record_timestamp, t.retired_at)
                        > (newest.record_timestamp, newest.retired_at)
                    {
                        *newest = *t;
                    }
                }
                records.retain(|model, live| {
                    let retired = tombstones.get(model);
                    retired.is_none_or(|t| live.digest.timestamp > t.record_timestamp)
                });
            }
        }
        let mut counts: HashMap<TensorKey, u64> = HashMap::new();
        for live in records.values() {
            let digest = live.digest;
            for key in digest.ref_keys.iter().chain(&digest.optimizer_keys) {
                *counts.entry(*key).or_default() += 1;
            }
        }
        let mut tombstones: Vec<Tombstone> = tombstones.into_values().collect();
        tombstones.sort_unstable_by_key(|t| t.model);
        Ok(Census {
            records,
            tombstones,
            counts,
            replication,
            providers,
        })
    }

    /// `(key, live records naming it)` for every referenced key placed
    /// on provider `idx`, in key order: that provider's refs sync entries.
    pub(super) fn counts_on(&self, idx: usize) -> Vec<(TensorKey, u64)> {
        let mut entries: Vec<(TensorKey, u64)> = self
            .counts
            .iter()
            .filter(|(key, _)| self.replication.is_replica(key.owner, self.providers, idx))
            .map(|(&key, &count)| (key, count))
            .collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        entries
    }
}
