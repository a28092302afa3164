//! What a provider reports about itself: the `STATS` counters and the
//! observability registry snapshot built from them.

use std::sync::atomic::Ordering;

use evostore_obs::{Metric, RegistrySnapshot};

use super::ProviderState;
use crate::messages::ProviderStats;
use crate::par;

impl ProviderState {
    /// Chunk-occupancy counters of the tensor store, when the physical
    /// layer is content-addressed.
    pub fn chunk_stats(&self) -> Option<evostore_kv::ChunkStats> {
        self.tensors.backend().chunk_stats()
    }

    /// Current statistics.
    pub fn stats(&self) -> ProviderStats {
        let chunk = self.tensors.backend().chunk_stats().unwrap_or_default();
        let snap = self.catalog_snapshot();
        let par = par::stats();
        ProviderStats {
            models: snap.len(),
            distinct_archs: snap.index.distinct_architectures(),
            index_cone_keys: snap.index.cone_keys(),
            index_postings: snap.index.postings(),
            tensors: self.tensors.len(),
            tensor_bytes: self.tensors.bytes_used() as u64,
            metadata_bytes: snap
                .records()
                .map(|(_, r)| r.owner_map.metadata_bytes() as u64)
                .sum(),
            query_stats: self.query_stats.load(),
            tensor_kv: self
                .tensors
                .backend()
                .metrics_snapshot()
                .unwrap_or_default(),
            meta_kv: self.meta_store.metrics_snapshot().unwrap_or_default(),
            bulk_segments_exposed: self.bulk_segments_exposed.load(Ordering::Relaxed),
            zero_copy_reads: self.zero_copy_reads.load(Ordering::Relaxed),
            copy_fallback_reads: self.copy_fallback_reads.load(Ordering::Relaxed),
            validate_par_batches: self.validate_par_batches.load(Ordering::Relaxed),
            par_forked_total: par.forked,
            par_inline_total: par.inline,
            par_helpers: par.helpers,
            delta_stored: self.delta_stored.load(Ordering::Relaxed),
            delta_reconstructs: self.delta_reconstructs.load(Ordering::Relaxed),
            delta_rebased: self.delta_rebased.load(Ordering::Relaxed),
            chunks: chunk.chunks,
            chunk_dedup_hits: chunk.dedup_hits,
            chunk_logical_bytes: chunk.logical_bytes,
            chunk_physical_bytes: chunk.physical_bytes,
            snapshot_publications: self.snapshot.swaps(),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            snapshot_retired: self.snapshot.retired_len() as u64,
            batch_envelopes: self.batch_envelopes.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            deliver: self.delivery.stats(),
            transfer_chunks_offered: self.transfer_chunks_offered.load(Ordering::Relaxed),
            transfer_chunks_sent: self.transfer_chunks_sent.load(Ordering::Relaxed),
            transfer_chunks_skipped: self.transfer_chunks_skipped.load(Ordering::Relaxed),
            transfer_deltas_shipped: self.transfer_deltas_shipped.load(Ordering::Relaxed),
            transfer_bytes_saved: self.transfer_bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// This provider's observability registry snapshot, built on demand
    /// (the `OBS_SNAPSHOT` reply): catalog gauges, kv backend counters
    /// per store, index query counters, and flight-ring occupancy.
    pub fn obs_snapshot(&self) -> RegistrySnapshot {
        let stats = self.stats();
        let p = self.index;
        let mut metrics = vec![
            Metric::gauge("evostore_provider_models", stats.models as f64)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_provider_distinct_archs",
                stats.distinct_archs as f64,
            )
            .with_label("provider", p),
            Metric::gauge("evostore_provider_tensors", stats.tensors as f64)
                .with_label("provider", p),
            Metric::gauge("evostore_provider_tensor_bytes", stats.tensor_bytes as f64)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_provider_metadata_bytes",
                stats.metadata_bytes as f64,
            )
            .with_label("provider", p),
            Metric::gauge(
                "evostore_index_distinct_architectures",
                stats.distinct_archs as f64,
            )
            .with_label("provider", p),
            Metric::gauge("evostore_index_cone_keys", stats.index_cone_keys as f64)
                .with_label("provider", p),
            Metric::gauge("evostore_index_postings", stats.index_postings as f64)
                .with_label("provider", p),
            Metric::counter("evostore_index_candidates", stats.query_stats.candidates)
                .with_label("provider", p),
            Metric::counter("evostore_index_scanned", stats.query_stats.scanned)
                .with_label("provider", p),
            // Retired with the memo and the answer cache (always 0); kept
            // registered, like `evostore_index_answered` below, until
            // the benchmark stops reading them.
            Metric::counter("evostore_index_memo_hits", stats.query_stats.memo_hits)
                .with_label("provider", p),
            Metric::counter("evostore_index_deduped", stats.query_stats.deduped)
                .with_label("provider", p),
            Metric::counter("evostore_index_pruned", stats.query_stats.pruned)
                .with_label("provider", p),
            Metric::counter(
                "evostore_index_prefilter_rejected",
                stats.query_stats.prefiltered,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_answered", stats.query_stats.answered)
                .with_label("provider", p),
            Metric::counter(
                "evostore_index_snapshot_publications",
                stats.snapshot_publications,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_snapshot_reads", stats.snapshot_reads)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_index_snapshot_retired",
                stats.snapshot_retired as f64,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_batch_envelopes", stats.batch_envelopes)
                .with_label("provider", p),
            Metric::counter("evostore_index_batch_queries", stats.batch_queries)
                .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_bulk_segments_exposed",
                stats.bulk_segments_exposed,
            )
            .with_label("provider", p),
            Metric::counter("evostore_datapath_zero_copy_reads", stats.zero_copy_reads)
                .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_copy_fallback_reads",
                stats.copy_fallback_reads,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_validate_par_batches",
                stats.validate_par_batches,
            )
            .with_label("provider", p),
            Metric::counter("evostore_delta_stored", stats.delta_stored).with_label("provider", p),
            Metric::counter("evostore_delta_reconstructs", stats.delta_reconstructs)
                .with_label("provider", p),
            Metric::counter("evostore_delta_rebased", stats.delta_rebased)
                .with_label("provider", p),
            Metric::gauge("evostore_chunk_count", stats.chunks as f64).with_label("provider", p),
            Metric::counter("evostore_chunk_dedup_hits", stats.chunk_dedup_hits)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_chunk_logical_bytes",
                stats.chunk_logical_bytes as f64,
            )
            .with_label("provider", p),
            Metric::gauge(
                "evostore_chunk_physical_bytes",
                stats.chunk_physical_bytes as f64,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_chunks_offered",
                stats.transfer_chunks_offered,
            )
            .with_label("provider", p),
            Metric::counter("evostore_transfer_chunks_sent", stats.transfer_chunks_sent)
                .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_chunks_skipped",
                stats.transfer_chunks_skipped,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_deltas_shipped",
                stats.transfer_deltas_shipped,
            )
            .with_label("provider", p),
            Metric::counter("evostore_transfer_bytes_saved", stats.transfer_bytes_saved)
                .with_label("provider", p),
        ];
        for (store, snap) in [("tensors", stats.tensor_kv), ("meta", stats.meta_kv)] {
            for (name, v) in [
                ("evostore_kv_puts", snap.puts),
                ("evostore_kv_gets", snap.gets),
                ("evostore_kv_misses", snap.misses),
                ("evostore_kv_deletes", snap.deletes),
                ("evostore_kv_bytes_written", snap.bytes_written),
                ("evostore_kv_bytes_read", snap.bytes_read),
            ] {
                metrics.push(
                    Metric::counter(name, v)
                        .with_label("provider", p)
                        .with_label("store", store),
                );
            }
        }
        metrics.extend(stats.deliver.metrics(p));
        metrics.extend(self.ledger.metrics(&format!("provider{p}")));
        // Under an ObsHub the hub's own source emits this ring's
        // counters; emitting them here too would double-count in the
        // merged snapshot.
        if !self.hub_attached {
            let rec = self.tracer.recorder();
            metrics.push(
                Metric::counter("evostore_obs_flight_events", rec.recorded())
                    .with_label("node", rec.node()),
            );
            metrics.push(
                Metric::counter("evostore_obs_flight_dropped", rec.dropped())
                    .with_label("node", rec.node()),
            );
        }
        RegistrySnapshot::from_metrics(metrics)
    }
}
