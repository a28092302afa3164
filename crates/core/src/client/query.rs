//! Catalog queries: the one batched catalog round under both query
//! kinds (best ancestor, pattern match) and deployment stats.

use super::calls::settle;
use super::*;

/// The reply of a batched catalog query: one answer per query, each
/// carrying the stats of the index walk that found it.
trait BatchReply {
    /// One provider's answer to one query.
    type Answer;
    /// Names the batch in the reply-count error.
    const KIND: &'static str;
    fn answers(self) -> Vec<Self::Answer>;
    fn stats(answer: &Self::Answer) -> IndexQueryStats;
}

impl BatchReply for LcpBatchReply {
    type Answer = LcpQueryReply;
    const KIND: &'static str = "LCP";
    fn answers(self) -> Vec<LcpQueryReply> {
        self.replies
    }
    fn stats(answer: &LcpQueryReply) -> IndexQueryStats {
        answer.stats
    }
}

impl BatchReply for PatternBatchReply {
    type Answer = PatternQueryReply;
    const KIND: &'static str = "pattern";
    fn answers(self) -> Vec<PatternQueryReply> {
        self.replies
    }
    fn stats(answer: &PatternQueryReply) -> IndexQueryStats {
        answer.stats
    }
}

impl EvoStoreClient {
    /// Broadcast an LCP query to every provider and reduce to the global
    /// best match (longest prefix; quality, then lower model id, break
    /// ties). The inner value is `None` when no stored model shares even
    /// the input layer.
    ///
    /// Degraded mode: providers that fail transiently (down, timing out)
    /// don't abort the query — as long as [`EvoStoreClient::min_quorum`]
    /// providers answer, the best match *over the reachable catalogs* is
    /// returned, with [`Degraded::unreachable`] naming the providers
    /// whose models were not considered. Below quorum the query fails
    /// with [`EvoError::PartialFailure`].
    ///
    /// On the wire this is [`EvoStoreClient::query_best_ancestors`] over
    /// a batch of one.
    pub fn query_best_ancestor(
        &self,
        graph: &CompactGraph,
    ) -> Result<Degraded<Option<LcpCandidate>>> {
        let batch = self.query_best_ancestors(std::slice::from_ref(graph))?;
        Ok(batch.map(|answers| answers.into_iter().next().flatten()))
    }

    /// Batched [`EvoStoreClient::query_best_ancestor`]: every graph in one
    /// `LCP_BATCH` envelope per provider, answered against a single pinned
    /// catalog snapshot, so dispatch, tracing and snapshot acquisition are
    /// paid once per envelope — the raw-throughput path for NAS-style
    /// bursts of candidate evaluations. Returns one answer per input
    /// graph, index-aligned, with the degraded-mode quorum semantics of the
    /// single-query form.
    pub fn query_best_ancestors(
        &self,
        graphs: &[CompactGraph],
    ) -> Result<Degraded<Vec<Option<LcpCandidate>>>> {
        let req = LcpBatchRequest {
            graphs: graphs.to_vec(),
        };
        self.catalog_round(
            "query_best_ancestors",
            methods::LcpBatch,
            &req,
            graphs.len(),
            |answers| best_of(answers.filter_map(|a| a.best)),
        )
    }

    /// Find every stored model whose architecture matches `pattern`
    /// (broadcast + concatenating reduce across providers). Results are
    /// `(model, quality)`, sorted by descending quality.
    ///
    /// Same degraded-mode quorum semantics as
    /// [`EvoStoreClient::query_best_ancestor`]: unreachable providers'
    /// catalogs are simply absent from the result as long as quorum is
    /// met. On the wire this is [`EvoStoreClient::find_matching_batch`]
    /// over a batch of one.
    pub fn find_matching(
        &self,
        pattern: &evostore_graph::ArchPattern,
    ) -> Result<Degraded<RankedMatches>> {
        let batch = self.find_matching_batch(std::slice::from_ref(pattern))?;
        Ok(batch.map(|answers| answers.into_iter().next().unwrap_or_default()))
    }

    /// Batched [`EvoStoreClient::find_matching`]: every pattern in one
    /// `MATCH_PATTERN_BATCH` envelope per provider, answered against a
    /// single pinned snapshot. Returns one ranked match list per input
    /// pattern, index-aligned; replicas answer for the same catalogs, so
    /// each list is deduplicated by model (keeping the best-reported
    /// quality) before ranking.
    pub fn find_matching_batch(
        &self,
        patterns: &[evostore_graph::ArchPattern],
    ) -> Result<Degraded<Vec<RankedMatches>>> {
        let req = PatternBatchRequest {
            patterns: patterns.to_vec(),
        };
        self.catalog_round(
            "find_matching_batch",
            methods::MatchPatternBatch,
            &req,
            patterns.len(),
            |answers| rank_matches(answers.flat_map(|a| a.matches)),
        )
    }

    /// The one batched catalog round: broadcast an envelope of `queries`
    /// queries as root op `op` with quorum semantics, check that every
    /// reply answers each query, note the index stats, and `reduce` each
    /// query's answers across the providers that replied. An empty batch
    /// sends nothing.
    fn catalog_round<M, T>(
        &self,
        op: &'static str,
        method: M,
        req: &M::Request,
        queries: usize,
        mut reduce: impl FnMut(std::vec::Drain<'_, <M::Reply as BatchReply>::Answer>) -> T,
    ) -> Result<Degraded<Vec<T>>>
    where
        M: Method,
        M::Reply: BatchReply,
    {
        if queries == 0 {
            return Ok(Degraded {
                value: Vec::new(),
                unreachable: Vec::new(),
            });
        }
        self.with_root_op("query", op, &self.telemetry.query, || {
            let (replies, unreachable) = self.quorum_broadcast(method, req)?;
            self.telemetry.note_batch(queries as u64);
            let mut legs = Vec::with_capacity(replies.len());
            for reply in replies {
                let answers = reply.answers();
                if answers.len() != queries {
                    return Err(EvoError::Protocol(format!(
                        "batched {} reply carries {} answers for {queries} queries",
                        <M::Reply as BatchReply>::KIND,
                        answers.len(),
                    )));
                }
                for answer in &answers {
                    self.telemetry
                        .note_index_stats(<M::Reply as BatchReply>::stats(answer));
                }
                legs.push(answers.into_iter());
            }
            let mut row = Vec::with_capacity(legs.len());
            let value = (0..queries)
                .map(|_| {
                    row.extend(legs.iter_mut().filter_map(Iterator::next));
                    reduce(row.drain(..))
                })
                .collect();
            Ok(Degraded { value, unreachable })
        })
    }

    /// Aggregate statistics across all providers. Unlike the query
    /// collectives, stats are only meaningful over the *complete*
    /// deployment, so any failed provider fails the call
    /// ([`EvoError::PartialFailure`] when transient).
    pub fn stats(&self) -> Result<ProviderStats> {
        let legs = settle(self.broadcast(methods::Stats, &StatsRequest {})?);
        let failed = legs.unreachable();
        if let Some((_, e)) = legs.permanent {
            return Err(e);
        }
        if !failed.is_empty() {
            return Err(EvoError::PartialFailure { failed });
        }
        let stats = legs.ok.into_iter().map(|(_, s)| s);
        Ok(stats.fold(ProviderStats::default(), ProviderStats::merge))
    }
}

/// Dedup pattern matches by model (replicas answer for the same
/// catalogs, keeping the best-reported quality) and rank by descending
/// quality, ascending model id.
fn rank_matches(matches: impl IntoIterator<Item = (ModelId, f64)>) -> Vec<(ModelId, f64)> {
    let mut best: HashMap<ModelId, f64> = HashMap::new();
    for (model, quality) in matches {
        let entry = best.entry(model).or_insert(quality);
        if quality > *entry {
            *entry = quality;
        }
    }
    let mut acc: Vec<(ModelId, f64)> = best.into_iter().collect();
    acc.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    acc
}
