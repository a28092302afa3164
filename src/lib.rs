//! # EvoStore — scalable storage of evolving learning models
//!
//! A from-scratch Rust reproduction of *EvoStore: Towards Scalable
//! Storage of Evolving Learning Models* (HPDC'24): a distributed
//! repository for deep-learning models derived from each other through
//! transfer learning, with incremental tensor-level storage, owner-map
//! metadata, longest-common-prefix (LCP) queries, provenance, and
//! distributed garbage collection.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `evostore-tensor` | dtypes, tensor buffers, hashing, identifiers |
//! | [`graph`] | `evostore-graph` | nested architectures, flattening, compact graphs, LCP |
//! | [`kv`] | `evostore-kv` | provider storage backends |
//! | [`obs`] | `evostore-obs` | trace contexts/spans, metrics registry, flight recorders |
//! | [`rpc`] | `evostore-rpc` | in-process fabric, bulk (RDMA-style) transfers, resilient typed calls |
//! | [`sim`] | `evostore-sim` | virtual clock, event queue, bandwidth resources, cost models |
//! | [`core`] | `evostore-core` | the repository: providers, client, owner maps, GC, provenance |
//! | [`baseline`] | `evostore-baseline` | HDF5-style format, simulated Lustre, Redis-Queries |
//! | [`nas`] | `evostore-nas` | aged evolution, simulated training, NAS driver |
//!
//! ## Quickstart
//!
//! ```
//! use evostore::core::{Deployment, OwnerMap};
//! use evostore::core::random_tensors;
//! use evostore::graph::{flatten, layered_model};
//! use evostore::tensor::ModelId;
//!
//! // Spin up a 4-provider in-memory deployment and a client.
//! let dep = Deployment::in_memory(4);
//! let client = dep.client();
//!
//! // Build and store a model.
//! let graph = flatten(&layered_model(1 << 20, 8)).unwrap();
//! let mut rng = rand::rng();
//! let tensors = random_tensors(ModelId(1), &graph, &mut rng);
//! client
//!     .store_model(graph.clone(), OwnerMap::fresh(ModelId(1), &graph), None, 0.9, &tensors)
//!     .unwrap();
//!
//! // Query the best transfer ancestor for a new candidate and load it.
//! let best = client.query_best_ancestor(&graph).unwrap().into_inner().unwrap();
//! assert_eq!(best.model, ModelId(1));
//! let loaded = client.load_model(ModelId(1)).unwrap();
//! assert_eq!(loaded.tensors.len(), tensors.len());
//! ```

pub use evostore_baseline as baseline;
pub use evostore_core as core;
pub use evostore_deliver as deliver;
pub use evostore_graph as graph;
pub use evostore_kv as kv;
pub use evostore_nas as nas;
pub use evostore_obs as obs;
pub use evostore_rpc as rpc;
pub use evostore_sim as sim;
pub use evostore_tensor as tensor;
