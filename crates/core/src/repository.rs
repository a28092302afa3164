//! The repository abstraction the NAS workflow drives.
//!
//! Fig 6-10 compare three configurations: EvoStore, HDF5+PFS (with a
//! Redis-style metadata server), and no repository at all. The NAS driver
//! programs against this trait; `evostore-core` implements it for
//! [`EvoStoreClient`], `evostore-baseline` for the HDF5+PFS stack.

use std::collections::HashMap;

use evostore_graph::{CompactGraph, LcpCandidate};
use evostore_tensor::{ModelId, TensorData, TensorKey, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::EvoStoreClient;
use crate::owner_map::OwnerMap;

/// Outcome of fetching transferred weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchOutcome {
    /// Tensor payload bytes read.
    pub bytes_read: u64,
    /// Tensors fetched.
    pub tensors: usize,
    /// Modeled seconds charged by the repository's own medium (the
    /// simulated PFS for the baseline; 0 for EvoStore, whose transfer
    /// time the caller derives from `bytes_read` and the fabric model).
    pub model_seconds: f64,
}

/// Outcome of storing a trained candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOutcomeStats {
    /// Tensor payload bytes written (incremental for EvoStore, full for
    /// the baselines).
    pub bytes_written: u64,
    /// Tensors written.
    pub tensors: usize,
    /// True when a derived store lost a race with the ancestor's
    /// retirement and fell back to storing the model from scratch.
    pub fell_back_fresh: bool,
    /// Modeled seconds charged by the repository's own medium (see
    /// [`FetchOutcome::model_seconds`]).
    pub model_seconds: f64,
}

/// Outcome of retiring a candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetireOutcomeStats {
    /// Tensors physically reclaimed by the time the retire returned: 0 for
    /// EvoStore, whose providers do not report what their decrements
    /// reclaim.
    pub reclaimed: usize,
    /// Modeled seconds charged by the repository's own medium.
    pub model_seconds: f64,
}

/// A model repository, as seen by the NAS workflow.
pub trait ModelRepository: Send + Sync {
    /// Human-readable name for reports ("EvoStore", "HDF5+PFS").
    fn name(&self) -> &'static str;

    /// Best transfer source for a candidate architecture, if any: the
    /// ancestor, its quality and the candidate's LCP against it.
    fn find_transfer_source(&self, graph: &CompactGraph) -> Option<LcpCandidate>;

    /// Fetch the prefix weights from the source (the transfer read).
    /// `None` when the source vanished (retired between query and fetch);
    /// the worker then trains from scratch.
    fn fetch_transfer(&self, graph: &CompactGraph, src: &LcpCandidate) -> Option<FetchOutcome>;

    /// Store a trained candidate. When `src` is given, the layers inside
    /// its prefix were frozen during training (only the rest changed);
    /// `seed` determinizes the simulated trained weights.
    fn store_candidate(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        src: Option<&LcpCandidate>,
        quality: f64,
        seed: u64,
    ) -> StoreOutcomeStats;

    /// Retire a candidate dropped from the NAS population.
    fn retire_candidate(&self, model: ModelId) -> RetireOutcomeStats;

    /// Total stored bytes (tensor payload + metadata) — Fig 10's metric.
    fn storage_bytes(&self) -> u64;
}

/// Generate simulated "trained" tensors for the given self-owned keys.
pub fn trained_tensors(
    graph: &CompactGraph,
    owner_map: &OwnerMap,
    seed: u64,
) -> HashMap<TensorKey, TensorData> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = HashMap::new();
    for v in owner_map.self_owned() {
        for spec in graph.param_specs(VertexId(v.0)) {
            out.insert(
                TensorKey::new(owner_map.model, v, spec.slot),
                spec.random(&mut rng),
            );
        }
    }
    out
}

impl ModelRepository for EvoStoreClient {
    fn name(&self) -> &'static str {
        "EvoStore"
    }

    fn find_transfer_source(&self, graph: &CompactGraph) -> Option<LcpCandidate> {
        self.query_best_ancestor(graph).ok()?.into_inner()
    }

    fn fetch_transfer(&self, _graph: &CompactGraph, src: &LcpCandidate) -> Option<FetchOutcome> {
        // A failed fetch means the ancestor was retired in between — the
        // legitimate race of a concurrent NAS; the caller falls back.
        self.fetch_prefix(src)
            .ok()
            .map(|(_meta, tensors)| FetchOutcome {
                bytes_read: tensors.values().map(|t| t.byte_len() as u64).sum(),
                tensors: tensors.len(),
                model_seconds: 0.0,
            })
    }

    fn store_candidate(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        src: Option<&LcpCandidate>,
        quality: f64,
        seed: u64,
    ) -> StoreOutcomeStats {
        // A derived store may lose a race with the ancestor's retirement;
        // it then falls back to a fresh one.
        let derived = src.and_then(|s| {
            let meta = self.get_meta(s.model).ok()?;
            let owner_map = OwnerMap::derive(model, graph, &s.lcp, &meta.owner_map);
            let tensors = trained_tensors(graph, &owner_map, seed);
            let parent = Some(s.model);
            self.store_model(graph.clone(), owner_map, parent, quality, &tensors)
                .ok()
        });
        let fell_back_fresh = src.is_some() && derived.is_none();
        let o = derived.unwrap_or_else(|| {
            let owner_map = OwnerMap::fresh(model, graph);
            let tensors = trained_tensors(graph, &owner_map, seed);
            self.store_model(graph.clone(), owner_map, None, quality, &tensors)
                .expect("fresh store must succeed")
        });
        StoreOutcomeStats {
            bytes_written: o.bytes_written,
            tensors: o.tensors_written,
            fell_back_fresh,
            model_seconds: 0.0,
        }
    }

    fn retire_candidate(&self, model: ModelId) -> RetireOutcomeStats {
        let o = self
            .retire_model(model)
            .expect("retiring a cataloged model must succeed");
        RetireOutcomeStats {
            reclaimed: o.tensors_reclaimed,
            model_seconds: 0.0,
        }
    }

    /// Read once reclamation has caught up: a retire's decrements on other
    /// providers trail it by the retiring providers' pump round. A `STATS` round in which no
    /// pump holds a leg shows every leg queued before it applied, so the
    /// round after it reads their space back. The wait is bounded, so a
    /// leg aimed at a down provider is counted as still stored.
    fn storage_bytes(&self) -> u64 {
        let deadline = std::time::Instant::now() + SETTLE_BOUND;
        let mut settled = false;
        loop {
            let Ok(s) = self.stats() else { return 0 };
            if settled || std::time::Instant::now() >= deadline {
                return s.tensor_bytes + s.metadata_bytes;
            }
            settled = s.gc_legs_queued == 0;
        }
    }
}

/// How long [`ModelRepository::storage_bytes`] waits for the decrement
/// pumps to go idle.
const SETTLE_BOUND: std::time::Duration = std::time::Duration::from_millis(100);
