//! Post-search refinement of the top-K candidates.
//!
//! §2: "The controller retains the top-K best performers, which are then
//! further refined (e.g., fully trained for many more epochs)". This
//! module implements that final stage against the repository: each
//! finalist's weights are loaded (one owner-map read each), trained for
//! several more epochs, and the refined accuracy — now a near-unbiased
//! estimate of the candidate's true potential — is reported.

use std::sync::Arc;

use evostore_core::ModelRepository;
use evostore_graph::{flatten, GenomeSpace, LcpCandidate};
use evostore_sim::TrainModel;
use evostore_tensor::ModelId;
use serde::Serialize;

use crate::driver::NasRunResult;
use crate::training::QualityModel;

/// One refined finalist.
#[derive(Debug, Clone, Serialize)]
pub struct RefinedCandidate {
    /// The candidate model.
    pub model: u64,
    /// Accuracy observed during the search (superficial training).
    pub search_accuracy: f64,
    /// Accuracy after full refinement.
    pub refined_accuracy: f64,
    /// Virtual seconds the refinement training took.
    pub train_seconds: f64,
    /// Bytes read from the repository to warm-start the refinement.
    pub bytes_read: u64,
}

/// Refinement report.
#[derive(Debug, Clone, Serialize)]
pub struct RefinementReport {
    /// The finalists, best refined accuracy first.
    pub candidates: Vec<RefinedCandidate>,
    /// Total virtual seconds of refinement training.
    pub total_train_seconds: f64,
    /// Total repository bytes read.
    pub total_bytes_read: u64,
}

/// Refine the top `k` candidates of a finished run.
///
/// `genome_of` maps a model id back to its genome (the driver records
/// ids densely, so callers usually regenerate genomes by replaying the
/// controller; tests pass a closure over a recorded map). `epochs` is
/// the refinement budget per finalist.
#[allow(clippy::too_many_arguments)]
pub fn refine_top_k(
    result: &NasRunResult,
    repo: &Arc<dyn ModelRepository>,
    space: &GenomeSpace,
    quality: &QualityModel,
    train: &TrainModel,
    genome_of: impl Fn(u64) -> Option<evostore_graph::Genome>,
    k: usize,
    epochs: usize,
) -> RefinementReport {
    // Rank the search results.
    let mut ranked: Vec<_> = result.traces.iter().collect();
    ranked.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());

    let mut candidates = Vec::new();
    for trace in ranked.into_iter().take(k) {
        let Some(genome) = genome_of(trace.model) else {
            continue;
        };
        let graph = flatten(&space.materialize(&genome)).expect("genomes flatten");
        // Warm-start from the stored weights: load the model through its
        // owner map (full read, one metadata lookup).
        let src = LcpCandidate {
            model: ModelId(trace.model),
            quality: trace.accuracy,
            lcp: evostore_graph::lcp(&graph, &graph),
        };
        // A finalist may have been retired (or the genome map stale):
        // skip rather than fail the whole refinement.
        let Some(fetch) = repo.fetch_transfer(&graph, &src) else {
            continue;
        };
        let bytes_read = fetch.bytes_read;

        // Full training: every epoch adds experience; no frozen layers.
        let params = graph.total_param_bytes() / 4;
        let mut train_seconds = 0.0;
        for _ in 0..epochs {
            train_seconds += train.epoch_time(params, 0);
        }
        // Refinement drives the observation toward the true potential.
        let potential = quality.potential(&genome);
        let refined =
            quality.observed_accuracy(potential, 1.0 + epochs as f64, trace.model ^ 0xF1E1D);

        candidates.push(RefinedCandidate {
            model: trace.model,
            search_accuracy: trace.accuracy,
            refined_accuracy: refined,
            train_seconds,
            bytes_read,
        });
    }

    candidates.sort_by(|a, b| b.refined_accuracy.partial_cmp(&a.refined_accuracy).unwrap());
    RefinementReport {
        total_train_seconds: candidates.iter().map(|c| c.train_seconds).sum(),
        total_bytes_read: candidates.iter().map(|c| c.bytes_read).sum(),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_nas, NasConfig, RepoSetup};
    use evostore_core::Deployment;
    use evostore_sim::FabricModel;

    #[test]
    fn refinement_improves_on_superficial_estimates() {
        let space = GenomeSpace::tiny();
        let cfg = NasConfig {
            space: space.clone(),
            workers: 4,
            max_candidates: 40,
            population_cap: 40,
            sample_size: 4,
            seed: 9,
            retire_dropped: false,
            ..Default::default()
        };

        let dep = Deployment::in_memory(2);
        let repo: Arc<dyn ModelRepository> = Arc::new(dep.client());
        let result = run_nas(
            &cfg,
            &RepoSetup::Rdma {
                repo: Arc::clone(&repo),
                fabric: FabricModel::default(),
            },
        );

        let report = refine_top_k(
            &result,
            &repo,
            &space,
            &cfg.quality,
            &cfg.train,
            |id| result.genomes.get(&id).cloned(),
            5,
            8,
        );

        assert_eq!(report.candidates.len(), 5, "all finalists refined");
        assert!(report.total_train_seconds > 0.0);
        for c in &report.candidates {
            // Refinement with many epochs should not *hurt* much; it
            // typically closes the observation gap.
            assert!(c.refined_accuracy >= c.search_accuracy - 0.02);
            assert!(c.bytes_read > 0, "warm start read the stored weights");
        }
        // Sorted by refined accuracy.
        assert!(report
            .candidates
            .windows(2)
            .all(|w| w[0].refined_accuracy >= w[1].refined_accuracy));
    }
}
