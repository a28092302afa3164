//! Client-side operation telemetry: one table declares every latency
//! histogram and counter a client keeps.

use evostore_graph::IndexQueryStats;
use evostore_obs::{counter_set, Metric, MetricValue};
use evostore_rpc::{RpcMetrics, RpcStats};

pub use evostore_obs::LatencyHistogram;

counter_set! {
    /// Per-operation-class telemetry of one client (shared by clones):
    /// latency histograms plus resilience counters — retries, timeouts,
    /// degraded (partial-coverage) queries, and parked GC decrements.
    pub struct ClientTelemetry;
    /// [`ClientTelemetry`] at one instant.
    pub struct ClientStats {
        /// LCP best-ancestor queries.
        query: histogram "evostore_client_query_latency_us",
        /// Tensor fetches (grouped reads).
        fetch: histogram "evostore_client_fetch_latency_us",
        /// Model stores.
        store: histogram "evostore_client_store_latency_us",
        /// Retirements.
        retire: histogram "evostore_client_retire_latency_us",
        /// RPC-layer resilience counters (retries, timeouts, exhausted
        /// calls), fed by every call this client issues.
        rpc: nested(RpcMetrics => RpcStats),
        /// Queries answered from fewer than all providers (quorum met,
        /// some unreachable).
        degraded_queries: atomic sum counter "evostore_client_degraded_queries",
        /// Refcount decrements parked for later retry after transient
        /// failures.
        parked_decrements: atomic sum counter "evostore_client_parked_decrements",
        /// Reads served by a later chain member after an earlier replica
        /// failed (down, timed out, or missing the data).
        read_failovers: atomic sum counter "evostore_client_read_failovers",
        /// Store/attach mirror legs that failed, leaving a model with
        /// fewer than `factor` copies until the next repair pass.
        under_replicated_stores: atomic sum counter "evostore_client_under_replicated_stores",
        /// Segments published as vectored bulk regions instead of being
        /// consolidated into a contiguous copy.
        bulk_segments_exposed: atomic sum counter "evostore_client_bulk_segments_exposed",
        /// Provider-side ancestor-query index counters
        /// ([`IndexQueryStats`]), accumulated from the per-reply stats of
        /// every LCP/pattern broadcast this client ran: live models covered.
        index_candidates: atomic sum counter "evostore_client_index_candidates",
        /// Distinct architectures whose LCP or match was computed.
        index_scanned: atomic sum counter "evostore_client_index_scanned",
        /// Retired with the pairwise LCP memo: always 0.
        index_memo_hits: atomic sum counter "evostore_client_index_memo_hits",
        /// Models covered by a same-signature sibling.
        index_deduped: atomic sum counter "evostore_client_index_deduped",
        /// Distinct architectures skipped outright.
        index_pruned: atomic sum counter "evostore_client_index_pruned",
        /// Subset of pruned cut by the cone bound or the kind bitset.
        index_prefiltered: atomic sum counter "evostore_client_index_prefiltered",
        /// Retired with the per-snapshot answer cache: always 0.
        index_answered: atomic sum counter "evostore_client_index_answered",
        /// Batched-query envelopes issued.
        batch_envelopes: atomic sum counter "evostore_client_batch_envelopes",
        /// Individual queries shipped inside batched envelopes.
        batch_queries: atomic sum counter "evostore_client_batch_queries",
    }
}

impl ClientTelemetry {
    /// Accumulate one provider reply's index statistics.
    pub fn note_index_stats(&self, stats: IndexQueryStats) {
        self.index_candidates.add(stats.candidates);
        self.index_scanned.add(stats.scanned);
        self.index_memo_hits.add(stats.memo_hits);
        self.index_deduped.add(stats.deduped);
        self.index_pruned.add(stats.pruned);
        self.index_prefiltered.add(stats.prefiltered);
        self.index_answered.add(stats.answered);
    }

    /// Record one batched-query envelope carrying `queries` queries.
    pub fn note_batch(&self, queries: u64) {
        self.batch_envelopes.add(1);
        self.batch_queries.add(queries);
    }

    /// Total index counters accumulated so far, as one stats value.
    pub fn index_stats(&self) -> IndexQueryStats {
        IndexQueryStats {
            candidates: self.index_candidates(),
            scanned: self.index_scanned(),
            memo_hits: self.index_memo_hits(),
            deduped: self.index_deduped(),
            pruned: self.index_pruned(),
            prefiltered: self.index_prefiltered(),
            answered: self.index_answered(),
        }
    }

    /// Every histogram and counter as named registry metrics, labeled
    /// `client="<label>"` — the client's contribution to the unified
    /// [`MetricsRegistry`](evostore_obs::MetricsRegistry).
    pub fn metrics(&self, label: &str) -> Vec<Metric> {
        let stats = self.snapshot();
        let labels = [("client", label)];
        let mut rows = stats.rows(&labels);
        rows.extend(stats.rpc.rows(&labels));
        rows
    }

    /// Multi-line report: one line per operation class, then every
    /// counter of the table by its series name.
    pub fn report(&self) -> String {
        let counters: Vec<String> = self
            .metrics("")
            .iter()
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => {
                    let name = m.name.strip_prefix("evostore_client_").unwrap_or(&m.name);
                    Some(format!("{name}={v}"))
                }
                _ => None,
            })
            .collect();
        format!(
            "query:  {}\nfetch:  {}\nstore:  {}\nretire: {}\ncounters: {}",
            self.query.report(),
            self.fetch.report(),
            self.store.report(),
            self.retire.report(),
            counters.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_cover_every_report_counter() {
        let t = ClientTelemetry::new();
        t.degraded_queries.add(1);
        t.parked_decrements.add(2);
        let metrics = t.metrics("0");
        let report = t.report();
        assert!(report.contains("degraded_queries=1 parked_decrements=2"));
        for name in ClientStats::SERIES.iter().chain(RpcStats::SERIES) {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("missing metric {name}"));
            assert_eq!(m.labels, vec![("client".to_string(), "0".to_string())]);
            if !name.ends_with("_latency_us") {
                let short = name.strip_prefix("evostore_client_").unwrap();
                assert!(report.contains(&format!("{short}=")), "{short} in report");
            }
        }
        assert_eq!(metrics.len(), 4 + 4 + 14);
    }

    #[test]
    fn report_formats() {
        let t = ClientTelemetry::new();
        t.query.record_us(50);
        let r = t.report();
        assert!(r.contains("query:"));
        assert!(r.contains("n=1"));
    }
}
