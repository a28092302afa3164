//! What a provider reports about itself: the `STATS` reply and the
//! observability registry snapshot built from it.

use evostore_graph::IndexQueryStats;
use evostore_kv::{KvBackend, MetricsSnapshot};
use evostore_obs::{Metric, RegistrySnapshot};

use super::ProviderState;
use crate::messages::ProviderStats;
use crate::par;

/// `(series, value)` of an index-query leaf. `graph` and `kv` cannot name
/// `evostore-obs`, so their two `nested` leaves of the [`ProviderStats`]
/// table are spelled here, the one place outside a table that does.
pub fn index_query_rows(s: &IndexQueryStats) -> [(&'static str, u64); 7] {
    [
        ("evostore_index_candidates", s.candidates),
        ("evostore_index_scanned", s.scanned),
        // Retired with the memo and the answer cache (always 0); kept
        // registered until the benchmark stops reading them.
        ("evostore_index_memo_hits", s.memo_hits),
        ("evostore_index_deduped", s.deduped),
        ("evostore_index_pruned", s.pruned),
        ("evostore_index_prefilter_rejected", s.prefiltered),
        ("evostore_index_answered", s.answered),
    ]
}

/// `(series, value)` of a kv-backend leaf (exported once per store).
pub fn kv_rows(s: &MetricsSnapshot) -> [(&'static str, u64); 6] {
    [
        ("evostore_kv_puts", s.puts),
        ("evostore_kv_gets", s.gets),
        ("evostore_kv_misses", s.misses),
        ("evostore_kv_deletes", s.deletes),
        ("evostore_kv_bytes_written", s.bytes_written),
        ("evostore_kv_bytes_read", s.bytes_read),
    ]
}

impl ProviderState {
    /// Current statistics: the handlers' counters as they stand, and
    /// every `computed` and `nested` line of the table worked out here.
    pub fn stats(&self) -> ProviderStats {
        let chunk = self
            .tensors
            .backend()
            .chunked()
            .map(|c| c.stats())
            .unwrap_or_default();
        let snap = self.catalog_snapshot();
        let par = par::stats();
        let pump = self.pump.stats();
        ProviderStats {
            models: snap.len() as u64,
            distinct_archs: snap.index.distinct_architectures() as u64,
            index_cone_keys: snap.index.cone_keys() as u64,
            index_postings: snap.index.postings() as u64,
            tensors: self.tensors.len() as u64,
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
            par_forked_total: par.forked,
            par_inline_total: par.inline,
            par_helpers: par.helpers,
            raw_cache_bytes: self.raw_cache.as_ref().map_or(0, |c| c.bytes() as u64),
            chunks: chunk.chunks,
            chunk_dedup_hits: chunk.dedup_hits,
            chunk_logical_bytes: chunk.logical_bytes,
            chunk_physical_bytes: chunk.physical_bytes,
            snapshot_publications: self.catalog.publications(),
            snapshot_clones: self.catalog.clones(),
            deliver: self.delivery.stats(),
            gc_legs_queued: pump.queued,
            gc_oldest_leg_age_us: pump.oldest_age_us,
            gc_legs_retried: pump.retried,
            gc_legs_dropped: pump.dropped,
            ..self.counters.snapshot()
        }
    }

    /// This provider's observability registry snapshot, built on demand
    /// (the `OBS_SNAPSHOT` reply): every series of the [`ProviderStats`]
    /// table and of its nested sets, and the per-method ledger. The
    /// provider's flight rings are registered with the deployment's
    /// [`ObsHub`](evostore_obs::ObsHub), which emits their occupancy.
    pub fn obs_snapshot(&self) -> RegistrySnapshot {
        let stats = self.stats();
        let provider = self.index.to_string();
        let labels = [("provider", provider.as_str())];
        let mut metrics = stats.rows(&labels);
        metrics.extend(stats.deliver.metrics(self.index));
        let leaf = |rows: &[(&str, u64)], labels: &[(&str, &str)]| -> Vec<Metric> {
            rows.iter()
                .map(|(name, v)| Metric::counter(name, *v).with_labels(labels))
                .collect()
        };
        metrics.extend(leaf(&index_query_rows(&stats.query_stats), &labels));
        for (store, kv) in [("tensors", stats.tensor_kv), ("meta", stats.meta_kv)] {
            let labels = [labels[0], ("store", store)];
            metrics.extend(leaf(&kv_rows(&kv), &labels));
        }
        metrics.extend(self.ledger.metrics(&format!("provider{provider}")));
        RegistrySnapshot::from_metrics(metrics)
    }
}
