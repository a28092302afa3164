//! The HDF5+PFS repository baseline.
//!
//! Composition of the three baseline substrates (§5.2): full-model H5Lite
//! serialization, the simulated Lustre PFS, and the Redis-Queries
//! metadata server. Implements the same [`ModelRepository`] trait as
//! EvoStore so the NAS driver can swap them:
//!
//! * **store** — serialize the *entire* model (no incremental diffs) and
//!   write one file; register/publish in Redis;
//! * **transfer fetch** — read the *entire* ancestor file (the format has
//!   no partial access), then pick the prefix out of it;
//! * **retire** — Redis refcount protocol; the file is deleted when the
//!   last reference drops.

use std::collections::HashMap;
use std::sync::Arc;

use evostore_core::{
    FetchOutcome, ModelRepository, OwnerMap, RetireOutcomeStats, StoreOutcomeStats,
};
use evostore_graph::{CompactGraph, LcpCandidate};
use evostore_rpc::{EndpointId, Fabric};
use evostore_tensor::ModelId;
use parking_lot::Mutex;

use crate::model_io::model_to_h5;
use crate::pfs::SimulatedPfs;
use crate::redis_queries::{
    call, methods, BeginAddRequest, ModelRef, RedisLcpRequest, RetireReply,
};

/// The HDF5+PFS baseline repository.
pub struct Hdf5PfsRepository {
    fabric: Arc<Fabric>,
    redis: EndpointId,
    pfs: Arc<SimulatedPfs>,
    include_optimizer: bool,
    /// Paths pinned by in-flight queries: ancestor -> weights path.
    pinned: Mutex<HashMap<ModelId, String>>,
}

impl Hdf5PfsRepository {
    /// Assemble the baseline from a fabric, a running Redis-Queries
    /// endpoint and a simulated PFS.
    pub fn new(
        fabric: Arc<Fabric>,
        redis: EndpointId,
        pfs: Arc<SimulatedPfs>,
        include_optimizer: bool,
    ) -> Hdf5PfsRepository {
        Hdf5PfsRepository {
            fabric,
            redis,
            pfs,
            include_optimizer,
            pinned: Mutex::new(HashMap::new()),
        }
    }

    /// The simulated file system (diagnostics and Fig 10 accounting).
    pub fn pfs(&self) -> &Arc<SimulatedPfs> {
        &self.pfs
    }

    fn weights_path(model: ModelId) -> String {
        format!("/models/{}.h5", model.0)
    }

    fn unpin(&self, ancestor: ModelId) {
        if self.pinned.lock().remove(&ancestor).is_some() {
            if let Ok(RetireReply {
                free_weights: Some(path),
            }) = call(
                &self.fabric,
                self.redis,
                methods::Unpin,
                &ModelRef { model: ancestor },
            ) {
                let _ = self.pfs.delete(&path);
            }
        }
    }
}

impl ModelRepository for Hdf5PfsRepository {
    fn name(&self) -> &'static str {
        "HDF5+PFS"
    }

    fn find_transfer_source(&self, graph: &CompactGraph) -> Option<LcpCandidate> {
        let reply = call(
            &self.fabric,
            self.redis,
            methods::Query,
            &RedisLcpRequest {
                graph: graph.clone(),
            },
        )
        .ok()?;
        let best = reply.best?;
        self.pinned
            .lock()
            .insert(best.model, best.weights_path.clone());
        Some(LcpCandidate {
            model: best.model,
            quality: best.quality,
            lcp: best.lcp,
        })
    }

    fn fetch_transfer(&self, _graph: &CompactGraph, src: &LcpCandidate) -> Option<FetchOutcome> {
        let path = self.pinned.lock().get(&src.model).cloned()?;
        let result = match self.pfs.read(&path) {
            Ok((data, op)) => {
                // Bulk-only access: the whole file is read and parsed even
                // though only the prefix is needed.
                match crate::h5lite::read_file(data) {
                    Ok(tree) => {
                        let all = crate::model_io::h5_to_tensors(&tree);
                        // Count the prefix tensors actually transferred.
                        let prefix_tensors: usize = src
                            .lcp
                            .prefix
                            .iter()
                            .filter_map(|&gv| src.lcp.match_in_ancestor[gv.0 as usize])
                            .map(|av| all.iter().filter(|((v, _), _)| *v == av).count())
                            .sum();
                        Some(FetchOutcome {
                            bytes_read: op.bytes,
                            tensors: prefix_tensors,
                            model_seconds: op.seconds,
                        })
                    }
                    Err(_) => None,
                }
            }
            Err(_) => None,
        };
        self.unpin(src.model);
        result
    }

    fn store_candidate(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        _src: Option<&LcpCandidate>,
        quality: f64,
        seed: u64,
    ) -> StoreOutcomeStats {
        // The baseline always materializes and serializes the FULL model —
        // transfer learning saves training time but not storage.
        let owner_map = OwnerMap::fresh(model, graph);
        let tensors = evostore_core::trained_tensors(graph, &owner_map, seed);

        let path = Self::weights_path(model);
        let begin = call(
            &self.fabric,
            self.redis,
            methods::BeginAdd,
            &BeginAddRequest {
                model,
                graph: graph.clone(),
                quality,
                weights_path: path.clone(),
            },
        )
        .expect("redis begin_add must succeed");

        let mut stats = StoreOutcomeStats::default();
        if begin.need_weights {
            let tree = model_to_h5(model, graph, &tensors, self.include_optimizer);
            let image = crate::h5lite::write_file(&tree);
            let op = self.pfs.write(&path, image);
            stats.bytes_written = op.bytes;
            stats.tensors = tensors.len();
            stats.model_seconds = op.seconds;
        } else {
            // Architecture already registered: only the metadata round
            // trips were paid.
            stats.model_seconds = self.pfs.model().metadata_latency_s;
        }
        call(
            &self.fabric,
            self.redis,
            methods::Publish,
            &ModelRef { model },
        )
        .expect("redis publish must succeed");
        stats
    }

    fn retire_candidate(&self, model: ModelId) -> RetireOutcomeStats {
        let reply = call(
            &self.fabric,
            self.redis,
            methods::Retire,
            &ModelRef { model },
        )
        .expect("redis retire must succeed");
        let mut out = RetireOutcomeStats {
            reclaimed: 0,
            model_seconds: self.pfs.model().metadata_latency_s,
        };
        if let Some(path) = reply.free_weights {
            if let Ok(op) = self.pfs.delete(&path) {
                out.reclaimed = 1;
                out.model_seconds += op.seconds;
            }
        }
        out
    }

    fn storage_bytes(&self) -> u64 {
        let meta = call(
            &self.fabric,
            self.redis,
            methods::Stats,
            &ModelRef { model: ModelId(0) },
        )
        .unwrap_or_default();
        self.pfs.total_bytes() + meta.metadata_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redis_queries::RedisServer;
    use evostore_graph::{flatten, Activation, Architecture, LayerConfig, LayerKind};

    fn seq(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(LayerConfig::new(
            "in",
            LayerKind::Input {
                shape: vec![units[0]],
            },
        ));
        let mut inf = units[0];
        for (i, &u) in units.iter().enumerate().skip(1) {
            prev = a.chain(
                prev,
                LayerConfig::new(
                    format!("d{i}"),
                    LayerKind::Dense {
                        in_features: inf,
                        units: u,
                        activation: Activation::ReLU,
                    },
                ),
            );
            inf = u;
        }
        flatten(&a).unwrap()
    }

    fn setup() -> (Arc<Fabric>, RedisServer, Hdf5PfsRepository) {
        let fabric = Fabric::new();
        let server = RedisServer::spawn(&fabric, 2);
        let repo = Hdf5PfsRepository::new(
            Arc::clone(&fabric),
            server.endpoint_id(),
            Arc::new(SimulatedPfs::new()),
            false,
        );
        (fabric, server, repo)
    }

    #[test]
    fn full_cycle() {
        let (_fabric, _server, repo) = setup();
        let g1 = seq(&[8, 16, 16, 4]);
        let g2 = seq(&[8, 16, 16, 5]);

        let s1 = repo.store_candidate(ModelId(1), &g1, None, 0.7, 1);
        assert!(s1.bytes_written as usize >= g1.total_param_bytes());
        assert!(s1.model_seconds > 0.0);

        let src = repo.find_transfer_source(&g2).unwrap();
        assert_eq!(src.model, ModelId(1));
        assert_eq!(src.lcp.len(), 3);

        let fetch = repo.fetch_transfer(&g2, &src).unwrap();
        // Bulk-only: the WHOLE ancestor file was read.
        assert_eq!(fetch.bytes_read, s1.bytes_written);
        assert!(fetch.tensors > 0);

        // Derived store still writes the full model (no dedup).
        let s2 = repo.store_candidate(ModelId(2), &g2, Some(&src), 0.8, 2);
        assert!(s2.bytes_written as usize >= g2.total_param_bytes());

        // Storage = sum of both full files (+ metadata) — no sharing.
        assert!(repo.storage_bytes() >= s1.bytes_written + s2.bytes_written);

        // Retire both; storage drains.
        repo.retire_candidate(ModelId(1));
        repo.retire_candidate(ModelId(2));
        assert_eq!(repo.pfs().file_count(), 0);
    }

    #[test]
    fn identical_architectures_share_one_file() {
        let (_fabric, _server, repo) = setup();
        let g = seq(&[8, 16, 4]);
        let s1 = repo.store_candidate(ModelId(1), &g, None, 0.5, 1);
        let s2 = repo.store_candidate(ModelId(2), &g, None, 0.5, 2);
        assert!(s1.bytes_written > 0);
        assert_eq!(s2.bytes_written, 0, "same architecture: no second file");
        assert_eq!(repo.pfs().file_count(), 1);
        // The file survives one retirement, not two.
        repo.retire_candidate(ModelId(1));
        assert_eq!(repo.pfs().file_count(), 1);
        repo.retire_candidate(ModelId(2));
        assert_eq!(repo.pfs().file_count(), 0);
    }

    #[test]
    fn stale_fetch_returns_none() {
        let (_fabric, _server, repo) = setup();
        let g1 = seq(&[8, 16, 4]);
        let g2 = seq(&[8, 16, 5]);
        repo.store_candidate(ModelId(1), &g1, None, 0.5, 1);
        let src = repo.find_transfer_source(&g2).unwrap();
        // Fetch once (consumes the pin)...
        assert!(repo.fetch_transfer(&g2, &src).is_some());
        // ...a second fetch with the same stale source finds no pin.
        assert!(repo.fetch_transfer(&g2, &src).is_none());
    }

    #[test]
    fn optimizer_state_inflates_storage() {
        let fabric = Fabric::new();
        let server = RedisServer::spawn(&fabric, 2);
        let lean_repo = Hdf5PfsRepository::new(
            Arc::clone(&fabric),
            server.endpoint_id(),
            Arc::new(SimulatedPfs::new()),
            false,
        );
        let server2 = RedisServer::spawn(&fabric, 2);
        let fat_repo = Hdf5PfsRepository::new(
            Arc::clone(&fabric),
            server2.endpoint_id(),
            Arc::new(SimulatedPfs::new()),
            true,
        );
        // Large enough that tensor payload dominates the embedded
        // architecture JSON.
        let g = seq(&[64, 128, 128, 64]);
        let lean = lean_repo.store_candidate(ModelId(1), &g, None, 0.5, 1);
        let fat = fat_repo.store_candidate(ModelId(1), &g, None, 0.5, 1);
        assert!(
            fat.bytes_written as f64 > lean.bytes_written as f64 * 2.5,
            "fat {} vs lean {}",
            fat.bytes_written,
            lean.bytes_written
        );
    }
}
