//! Architecture-graph substrate for the EvoStore model repository.
//!
//! This crate owns everything the paper's §4.2 describes:
//!
//! * nested, Keras-style [`Architecture`]s whose nodes are leaf layers or
//!   submodels ([`arch`]);
//! * deterministic [`flatten::flatten`]ing into [`CompactGraph`]s — the
//!   single hierarchy of leaf layers with unique vertex ids that providers
//!   store and query;
//! * the longest-common-prefix query ([`lcp::lcp`], the paper's
//!   Algorithm 1) and the best-ancestor scan built on it;
//! * architecture generators for micro-benchmarks and NAS search spaces
//!   ([`generator`]);
//! * what the provider's snapshot-isolated catalog is built from: the ancestor
//!   index ([`index`]) over per-architecture cone hashes and layer-kind
//!   bitsets ([`prefilter`]), and atomically published immutable
//!   snapshots ([`snapshot`]).

pub mod analysis;
pub mod arch;
pub mod compact;
pub mod flatten;
pub mod generator;
pub mod index;
pub mod layer;
pub mod lcp;
pub mod pattern;
pub mod prefilter;
pub mod snapshot;

pub use analysis::{arch_stats, to_dot, ArchStats, GraphDiff};
pub use arch::{ArchError, ArchNode, Architecture, NodeRef};
pub use compact::{CompactGraph, CompactVertex};
pub use flatten::flatten;
pub use generator::{layered_model, CellGene, Genome, GenomeSpace, JoinKind, NormKind};
pub use index::{ArchIndex, IndexCandidate, IndexQueryStats};
pub use layer::{Activation, LayerConfig, LayerKind, TensorSpec};
pub use lcp::{best_ancestor, lcp, lcp_fixpoint, AsGraph, BestMatch, LcpResult};
pub use pattern::{ArchPattern, LayerPattern};
pub use prefilter::PatternFilter;
pub use snapshot::SnapshotCell;
