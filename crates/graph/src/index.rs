//! Provider-side architecture index for ancestor queries.
//!
//! The naive LCP scan runs Algorithm 1 against *every* stored model on
//! every query — O(catalog × graph) work per request, repeated for the
//! structurally identical architectures that NAS mutation families
//! produce in bulk. [`ArchIndex`] turns that scan into indexed work with
//! four cooperating mechanisms:
//!
//! 1. **Signature dedup** — catalog entries are bucketed by
//!    [`CompactGraph::arch_signature`]. The LCP depends only on vertex
//!    signatures and the edge relation — exactly what the architecture
//!    signature hashes — so `lcp()` runs at most once per *distinct*
//!    architecture; the best `(quality, model id)` inside the winning
//!    bucket is selected in O(bucket).
//! 2. **Memoized LCP** — a bounded, sharded cache keyed by
//!    `(query_sig, stored_sig) → LcpResult`. Repeated queries against a
//!    stable catalog (the NAS-driver pattern: one population, many
//!    probes) become hash lookups. A memo entry is *pure* — it relates
//!    two graphs, not catalog state — so a stale entry can never produce
//!    a wrong answer; entries are still purged when their stored
//!    architecture leaves the catalog (retire), bounding memory.
//! 3. **Bound-based pruning** — buckets are grouped by the root vertex
//!    signature. The LCP's base case requires the roots to match, so a
//!    root mismatch proves the LCP is empty and the whole group is
//!    skipped without running anything. Within the matching group,
//!    buckets are scanned in descending vertex-count order; since an
//!    LCP can never be longer than the stored graph, the scan
//!    terminates as soon as `best_len` *strictly exceeds* every
//!    remaining vertex count. (Strictly: a remaining bucket whose
//!    vertex count equals `best_len` can still tie on length and win
//!    the quality tie-break, so `≥` termination would change winners.)
//! 4. **Bitset prefilters** (see [`crate::prefilter`]) — each bucket
//!    carries a 64-bit bloom over its non-root vertex signatures and a
//!    bitset of its layer kinds. Ancestor scans derive a sound LCP
//!    upper bound from one `AND` + popcount against the query's bloom
//!    and skip buckets that provably cannot beat *or tie* the current
//!    best (strict `<`, same reasoning as the vertex-count bound);
//!    pattern scans skip buckets missing a required layer kind. The
//!    group stores blooms as a flat side array, so the scan rejects
//!    runs of disjoint buckets four at a time (the chunked-compare
//!    fast path) without touching the bucket table or the memo.
//! 5. **Per-snapshot answer cache** — the *final* best-ancestor answer
//!    is memoized per query signature. This is only sound because the
//!    index values published to readers are immutable: `Clone` hands
//!    the clone a fresh, empty cache and in-place mutation clears it,
//!    so a cached answer can never outlive the catalog state it was
//!    computed against — there is no invalidation protocol to get
//!    wrong. A repeat probe against an unchanged catalog (the dominant
//!    NAS-driver pattern) costs one shard lock and one hash lookup
//!    instead of a walk over every distinct architecture.
//!
//! The index is a *snapshot-friendly* data structure: buckets and root
//! groups sit behind `Arc`s with copy-on-write mutation, so `Clone` is
//! O(distinct architectures) pointer bumps and an updated clone can be
//! published atomically (see [`crate::snapshot::SnapshotCell`]) while
//! readers keep scanning the previous version. The memo is *shared*
//! across clones (entries are pure, so cross-snapshot hits are always
//! valid) and uses sharded `parking_lot` mutexes — the only interior
//! mutability on the read path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use evostore_tensor::{ContentHash, ModelId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::compact::CompactGraph;
use crate::lcp::{lcp, LcpResult};
use crate::pattern::ArchPattern;
use crate::prefilter::{self, PatternFilter, QueryFilter};

/// Memo shards; also the modulus of the stored-signature shard mapping.
const MEMO_SHARDS: usize = 64;

/// Default bound on memoized `(query, stored)` pairs across all shards.
/// Each entry holds one [`LcpResult`] (a few hundred bytes for typical
/// NAS graphs); the default bounds the memo to low hundreds of MB on
/// worst-case catalogs while comfortably covering a 64-probe driver
/// against several thousand distinct architectures.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 19;

/// Counters describing how one query (or one accumulation period) was
/// served by the index. All counts are in *distinct architectures*
/// except `candidates` and `deduped`, which count models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexQueryStats {
    /// Live models covered by the query (the catalog population).
    pub candidates: u64,
    /// Distinct architectures whose LCP (or pattern match) was actually
    /// computed — the residual expensive work.
    pub scanned: u64,
    /// Distinct architectures answered from the LCP memo.
    pub memo_hits: u64,
    /// Models skipped because another model with the same architecture
    /// signature already covered them (the dedup saving).
    pub deduped: u64,
    /// Distinct architectures skipped outright: root-signature mismatch,
    /// a vertex-count or bloom upper bound proving they cannot win, or a
    /// missing layer kind (pattern queries).
    pub pruned: u64,
    /// Subset of `pruned` rejected by the bitset prefilters specifically
    /// (signature-bloom bound or layer-kind bitset).
    #[serde(default)]
    pub prefiltered: u64,
    /// Queries answered whole from the per-snapshot answer cache (the
    /// walk never started; `pruned` covers the entire catalog).
    #[serde(default)]
    pub answered: u64,
}

impl IndexQueryStats {
    /// Element-wise sum (accumulating across providers or queries).
    pub fn merge(self, other: IndexQueryStats) -> IndexQueryStats {
        IndexQueryStats {
            candidates: self.candidates + other.candidates,
            scanned: self.scanned + other.scanned,
            memo_hits: self.memo_hits + other.memo_hits,
            deduped: self.deduped + other.deduped,
            pruned: self.pruned + other.pruned,
            prefiltered: self.prefiltered + other.prefiltered,
            answered: self.answered + other.answered,
        }
    }
}

/// The best ancestor found by an indexed scan.
#[derive(Debug, Clone)]
pub struct IndexCandidate {
    /// The winning model.
    pub model: ModelId,
    /// Its quality metric.
    pub quality: f64,
    /// The LCP of the query graph against the winner's architecture
    /// (shared with the memo).
    pub lcp: Arc<LcpResult>,
}

/// One distinct architecture and the models that share it.
#[derive(Clone)]
struct Bucket {
    /// Representative graph (all members are structurally identical).
    graph: Arc<CompactGraph>,
    /// Bitset of layer-kind tags present in the graph.
    kind_bits: u64,
    /// `(model, quality)` of every member, unordered.
    models: Vec<(ModelId, f64)>,
}

impl Bucket {
    /// Best member under the scan tie-break: highest quality, then
    /// lowest model id.
    fn best_member(&self) -> (ModelId, f64) {
        let mut it = self.models.iter();
        let mut best = *it.next().expect("buckets are never empty");
        for &(m, q) in it {
            if q > best.1 || (q == best.1 && m < best.0) {
                best = (m, q);
            }
        }
        best
    }
}

/// Buckets sharing one root-vertex signature, sorted by descending
/// `(vertex_count, signature)`. `blooms[i]` is the non-root signature
/// bloom of `entries[i]` — a flat side array so the ancestor scan can
/// reject runs of disjoint buckets without touching the bucket table.
#[derive(Clone, Default)]
struct RootGroup {
    entries: Vec<(u32, ContentHash)>,
    blooms: Vec<u64>,
}

/// One shard of the LCP memo: FIFO-bounded map of
/// `(query_sig, stored_sig) → LcpResult`.
#[derive(Default)]
struct MemoShard {
    map: HashMap<(u128, u128), Arc<LcpResult>>,
    order: VecDeque<(u128, u128)>,
}

/// Sharded, bounded LCP memo. Sharding is by *stored* signature so that
/// retiring an architecture invalidates exactly one shard.
struct LcpMemo {
    shards: Vec<Mutex<MemoShard>>,
    per_shard_capacity: usize,
}

impl LcpMemo {
    fn new(capacity: usize) -> LcpMemo {
        LcpMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
            per_shard_capacity: capacity.div_ceil(MEMO_SHARDS).max(1),
        }
    }

    fn shard_of(stored: ContentHash) -> usize {
        stored.low64() as usize % MEMO_SHARDS
    }

    fn get(&self, query: ContentHash, stored: ContentHash) -> Option<Arc<LcpResult>> {
        let shard = self.shards[Self::shard_of(stored)].lock();
        shard.map.get(&(query.0, stored.0)).cloned()
    }

    fn insert(&self, query: ContentHash, stored: ContentHash, value: Arc<LcpResult>) {
        let mut shard = self.shards[Self::shard_of(stored)].lock();
        let key = (query.0, stored.0);
        if shard.map.insert(key, value).is_none() {
            shard.order.push_back(key);
            while shard.map.len() > self.per_shard_capacity {
                let Some(evicted) = shard.order.pop_front() else {
                    break;
                };
                shard.map.remove(&evicted);
            }
        }
    }

    /// Drop every entry memoized against `stored` (its architecture left
    /// the catalog). Touches a single shard.
    fn invalidate_stored(&self, stored: ContentHash) -> usize {
        let mut shard = self.shards[Self::shard_of(stored)].lock();
        let before = shard.map.len();
        shard.map.retain(|k, _| k.1 != stored.0);
        shard.order.retain(|k| k.1 != stored.0);
        before - shard.map.len()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

/// Answer-cache shards (per-snapshot final-result memo).
const ANSWER_SHARDS: usize = 16;

/// Per-shard bound on cached answers. When a shard fills it is cleared
/// wholesale — crude, but the cache lives only as long as its snapshot
/// (every catalog mutation publishes a clone with a fresh cache), so a
/// reset costs one cold walk per distinct live probe at worst.
const ANSWER_SHARD_CAPACITY: usize = 4096;

/// Sharded cache of *final* best-ancestor answers, keyed by query
/// architecture signature.
///
/// Soundness argument: a cached answer is a function of (query graph,
/// whole catalog). The cache is therefore only consulted on index
/// values that cannot change under it — [`ArchIndex::clone`] gives the
/// clone a fresh cache, and every in-place mutation
/// ([`ArchIndex::insert`]/[`ArchIndex::remove`]) clears it. Unlike the
/// pairwise LCP memo (pure, shared across snapshots), this cache never
/// crosses a snapshot boundary.
struct AnswerCache {
    shards: Vec<Mutex<HashMap<u128, Option<IndexCandidate>>>>,
}

impl AnswerCache {
    fn new() -> AnswerCache {
        AnswerCache {
            shards: (0..ANSWER_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard_of(query: ContentHash) -> usize {
        query.low64() as usize % ANSWER_SHARDS
    }

    /// `None` = never computed; `Some(None)` = computed, no ancestor.
    fn get(&self, query: ContentHash) -> Option<Option<IndexCandidate>> {
        self.shards[Self::shard_of(query)]
            .lock()
            .get(&query.0)
            .cloned()
    }

    fn insert(&self, query: ContentHash, answer: Option<IndexCandidate>) {
        let mut shard = self.shards[Self::shard_of(query)].lock();
        if shard.len() >= ANSWER_SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(query.0, answer);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// Incrementally maintained index over a catalog of `(model, graph,
/// quality)` entries, answering best-ancestor (LCP) and pattern queries
/// without touching structurally duplicate entries.
///
/// Invariants:
/// * every indexed model appears in exactly one bucket, the one keyed by
///   its graph's architecture signature;
/// * a bucket exists iff it has at least one member, and its signature
///   appears in exactly one root group (at the same position as its
///   bloom in the group's side array);
/// * each root group is sorted by descending `(vertex_count, signature)`
///   (the signature tail makes the order total and deterministic);
/// * memo entries only ever relate two graphs by value — they are never
///   consulted for signatures absent from the bucket table, so a stale
///   entry cannot resurrect a retired ancestor.
///
/// `Clone` is cheap (copy-on-write `Arc`s; the memo is shared), which is
/// what lets the provider publish updated indexes as immutable snapshots.
pub struct ArchIndex {
    /// arch signature → bucket of structurally identical models.
    buckets: HashMap<ContentHash, Arc<Bucket>>,
    /// model → its architecture signature (drives removal).
    model_sig: HashMap<ModelId, ContentHash>,
    /// root-vertex signature → group of buckets with that root.
    by_root: HashMap<ContentHash, Arc<RootGroup>>,
    memo: Arc<LcpMemo>,
    /// Final-answer cache; valid only for THIS index value (see
    /// [`AnswerCache`]), hence excluded from `Clone`.
    answers: AnswerCache,
}

impl Clone for ArchIndex {
    /// Copy-on-write clone: buckets/groups are pointer bumps, the pure
    /// LCP memo is shared, and the clone starts with an EMPTY answer
    /// cache — cached answers must never travel to an index value that
    /// will be mutated out from under them.
    fn clone(&self) -> ArchIndex {
        ArchIndex {
            buckets: self.buckets.clone(),
            model_sig: self.model_sig.clone(),
            by_root: self.by_root.clone(),
            memo: Arc::clone(&self.memo),
            answers: AnswerCache::new(),
        }
    }
}

impl Default for ArchIndex {
    fn default() -> Self {
        ArchIndex::new()
    }
}

impl ArchIndex {
    /// Empty index with the default memo capacity.
    pub fn new() -> ArchIndex {
        ArchIndex::with_memo_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// Empty index bounding the memo to `capacity` entries.
    pub fn with_memo_capacity(capacity: usize) -> ArchIndex {
        ArchIndex {
            buckets: HashMap::new(),
            model_sig: HashMap::new(),
            by_root: HashMap::new(),
            memo: Arc::new(LcpMemo::new(capacity)),
            answers: AnswerCache::new(),
        }
    }

    /// Indexed models.
    pub fn len(&self) -> usize {
        self.model_sig.len()
    }

    /// True when no model is indexed.
    pub fn is_empty(&self) -> bool {
        self.model_sig.is_empty()
    }

    /// Is `model` indexed?
    pub fn contains(&self, model: ModelId) -> bool {
        self.model_sig.contains_key(&model)
    }

    /// Distinct architectures indexed (the dedup denominator).
    pub fn distinct_architectures(&self) -> usize {
        self.buckets.len()
    }

    /// Live memo entries (diagnostics/tests).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Index `model`. Replaces any previous entry for the same id.
    pub fn insert(&mut self, model: ModelId, graph: Arc<CompactGraph>, quality: f64) {
        self.remove(model);
        self.answers.clear();
        let sig = graph.arch_signature();
        self.model_sig.insert(model, sig);
        match self.buckets.get_mut(&sig) {
            Some(bucket) => Arc::make_mut(bucket).models.push((model, quality)),
            None => {
                let vertex_count = graph.len() as u32;
                if !graph.is_empty() {
                    let group =
                        Arc::make_mut(self.by_root.entry(graph.sig(graph.root())).or_default());
                    // Descending (vertex_count, sig): find the insertion
                    // point in the reverse-sorted vector.
                    let pos = group.entries.partition_point(|&e| e > (vertex_count, sig));
                    group.entries.insert(pos, (vertex_count, sig));
                    group.blooms.insert(pos, prefilter::sig_bloom(&graph));
                }
                let kind_bits = prefilter::kind_bits(&graph);
                self.buckets.insert(
                    sig,
                    Arc::new(Bucket {
                        graph,
                        kind_bits,
                        models: vec![(model, quality)],
                    }),
                );
            }
        }
    }

    /// Un-index `model`; returns whether it was present. Dropping the
    /// last member of an architecture removes its bucket and purges the
    /// memo entries computed against it.
    pub fn remove(&mut self, model: ModelId) -> bool {
        let Some(sig) = self.model_sig.remove(&model) else {
            return false;
        };
        self.answers.clear();
        let bucket = self.buckets.get_mut(&sig).expect("bucket exists for sig");
        let b = Arc::make_mut(bucket);
        b.models.retain(|&(m, _)| m != model);
        if b.models.is_empty() {
            let bucket = self.buckets.remove(&sig).expect("bucket exists");
            if !bucket.graph.is_empty() {
                let root = bucket.graph.sig(bucket.graph.root());
                if let Some(group) = self.by_root.get_mut(&root) {
                    let g = Arc::make_mut(group);
                    if let Some(pos) = g.entries.iter().position(|&(_, s)| s == sig) {
                        g.entries.remove(pos);
                        g.blooms.remove(pos);
                    }
                    if g.entries.is_empty() {
                        self.by_root.remove(&root);
                    }
                }
            }
            self.memo.invalidate_stored(sig);
        }
        true
    }

    /// Best ancestor of `g` over the indexed catalog: longest LCP, ties
    /// broken by higher quality, then lower model id — byte-identical to
    /// the brute-force scan over every member. Prefilters enabled.
    pub fn best_ancestor(&self, g: &CompactGraph) -> (Option<IndexCandidate>, IndexQueryStats) {
        self.best_ancestor_with(g, true)
    }

    /// [`ArchIndex::best_ancestor`] with the acceleration layers
    /// toggleable: `false` bypasses the bitset prefilters AND the
    /// per-snapshot answer cache, reproducing the unaccelerated
    /// dedup+memo scan exactly — the reference the unit tests compare
    /// the accelerated answers against.
    pub(crate) fn best_ancestor_with(
        &self,
        g: &CompactGraph,
        use_prefilter: bool,
    ) -> (Option<IndexCandidate>, IndexQueryStats) {
        let mut stats = IndexQueryStats {
            candidates: self.model_sig.len() as u64,
            ..IndexQueryStats::default()
        };
        let total_archs = self.buckets.len() as u64;
        if g.is_empty() {
            stats.pruned = total_archs;
            return (None, stats);
        }
        let query_sig = g.arch_signature();
        if use_prefilter {
            if let Some(answer) = self.answers.get(query_sig) {
                stats.answered = 1;
                stats.pruned = total_archs;
                return (answer, stats);
            }
        }
        let group = match self.by_root.get(&g.sig(g.root())) {
            Some(group) => group,
            None => {
                stats.pruned = total_archs;
                if use_prefilter {
                    self.answers.insert(query_sig, None);
                }
                return (None, stats);
            }
        };
        // Every bucket outside the root group is pruned by the root
        // precondition of Algorithm 1.
        stats.pruned = total_archs - group.entries.len() as u64;

        let qf = QueryFilter::new(g);
        let entries = &group.entries;
        let blooms = &group.blooms;
        let n = entries.len();
        let mut best: Option<IndexCandidate> = None;
        let mut best_len = 0usize;
        let mut i = 0usize;
        while i < n {
            // Chunked-compare fast path: once best_len >= 2, any bucket
            // whose bloom is disjoint from the query's can reach at most
            // the root (length 1) and cannot tie — reject four at a time
            // with one AND + compare.
            if use_prefilter && best_len >= 2 && i + 4 <= n {
                let merged = blooms[i] | blooms[i + 1] | blooms[i + 2] | blooms[i + 3];
                if merged & qf.sig_bloom == 0 {
                    stats.pruned += 4;
                    stats.prefiltered += 4;
                    i += 4;
                    continue;
                }
            }
            let (vertex_count, sig) = entries[i];
            // Vertex count bounds the LCP length; the group is sorted
            // descending, so once even a tie on length is impossible the
            // remainder cannot win.
            if (vertex_count as usize) < best_len {
                stats.pruned += (n - i) as u64;
                break;
            }
            // Bloom bound: strictly below best_len means the bucket can
            // neither win nor tie (same strictness argument as above).
            if use_prefilter && best_len >= 2 && qf.lcp_bound(blooms[i]) < best_len {
                stats.pruned += 1;
                stats.prefiltered += 1;
                i += 1;
                continue;
            }
            let bucket = &self.buckets[&sig];
            let result = match self.memo.get(query_sig, sig) {
                Some(hit) => {
                    stats.memo_hits += 1;
                    hit
                }
                None => {
                    stats.scanned += 1;
                    let r = Arc::new(lcp(g, &bucket.graph));
                    self.memo.insert(query_sig, sig, Arc::clone(&r));
                    r
                }
            };
            stats.deduped += bucket.models.len() as u64 - 1;
            if result.is_empty() {
                // Unreachable for a matching root (the root always joins
                // the prefix), but harmless to tolerate.
                i += 1;
                continue;
            }
            let (model, quality) = bucket.best_member();
            let better = match &best {
                None => true,
                Some(b) => {
                    result.len() > best_len
                        || (result.len() == best_len
                            && (quality > b.quality || (quality == b.quality && model < b.model)))
                }
            };
            if better {
                best_len = result.len();
                best = Some(IndexCandidate {
                    model,
                    quality,
                    lcp: result,
                });
            }
            i += 1;
        }
        if use_prefilter {
            self.answers.insert(query_sig, best.clone());
        }
        (best, stats)
    }

    /// Every `(model, quality)` whose architecture matches `pattern`,
    /// sorted by model id. The pattern is evaluated once per distinct
    /// architecture (patterns are architecture-only predicates, so
    /// signature dedup applies verbatim). Prefilters enabled.
    pub fn match_pattern(&self, pattern: &ArchPattern) -> (Vec<(ModelId, f64)>, IndexQueryStats) {
        self.match_pattern_with(pattern, true)
    }

    /// [`ArchIndex::match_pattern`] with the layer-kind bitset prefilter
    /// toggleable (`false` is the unit tests' reference walk).
    pub(crate) fn match_pattern_with(
        &self,
        pattern: &ArchPattern,
        use_prefilter: bool,
    ) -> (Vec<(ModelId, f64)>, IndexQueryStats) {
        let mut stats = IndexQueryStats {
            candidates: self.model_sig.len() as u64,
            ..IndexQueryStats::default()
        };
        let pf = PatternFilter::new(pattern);
        let mut matches = Vec::new();
        for bucket in self.buckets.values() {
            if use_prefilter && !pf.admits(bucket.kind_bits) {
                stats.pruned += 1;
                stats.prefiltered += 1;
                continue;
            }
            stats.scanned += 1;
            stats.deduped += bucket.models.len() as u64 - 1;
            if pattern.matches(&bucket.graph) {
                matches.extend(bucket.models.iter().copied());
            }
        }
        matches.sort_by_key(|&(m, _)| m);
        (matches, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::layer::{Activation, LayerConfig, LayerKind};
    use crate::lcp::lcp;

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

    /// Brute-force reference: scan everything, max by (len, quality,
    /// lower id) — mirrors the provider's unindexed scan.
    fn brute(
        g: &CompactGraph,
        entries: &[(ModelId, Arc<CompactGraph>, f64)],
    ) -> Option<(ModelId, f64, LcpResult)> {
        entries
            .iter()
            .map(|(m, a, q)| (*m, *q, lcp(g, a)))
            .filter(|(_, _, r)| !r.is_empty())
            .max_by(|(ma, qa, ra), (mb, qb, rb)| {
                ra.len()
                    .cmp(&rb.len())
                    .then(qa.partial_cmp(qb).unwrap_or(std::cmp::Ordering::Equal))
                    .then(mb.cmp(ma))
            })
    }

    fn check_equiv(
        index: &ArchIndex,
        entries: &[(ModelId, Arc<CompactGraph>, f64)],
        g: &CompactGraph,
    ) {
        let (got, _) = index.best_ancestor(g);
        let want = brute(g, entries);
        match (got, want) {
            (None, None) => {}
            (Some(c), Some((m, q, r))) => {
                assert_eq!(c.model, m);
                assert_eq!(c.quality, q);
                assert_eq!(*c.lcp, r);
            }
            (got, want) => panic!(
                "index/brute mismatch: index={:?} brute={:?}",
                got.map(|c| c.model),
                want.map(|w| w.0)
            ),
        }
    }

    #[test]
    fn dedup_scans_once_per_architecture() {
        let mut ix = ArchIndex::new();
        let g = Arc::new(seq(&[4, 8, 2]));
        ix.insert(ModelId(1), Arc::clone(&g), 0.3);
        ix.insert(ModelId(2), Arc::clone(&g), 0.9);
        ix.insert(ModelId(3), Arc::clone(&g), 0.9);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.distinct_architectures(), 1);

        let (best, stats) = ix.best_ancestor(&g);
        let best = best.unwrap();
        // Highest quality wins; equal qualities break to the lower id.
        assert_eq!(best.model, ModelId(2));
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.deduped, 2);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn root_mismatch_prunes_without_scanning() {
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[5, 8, 2])), 0.5);
        let probe = seq(&[4, 8, 2]); // different input width => root sig differs
        let (best, stats) = ix.best_ancestor(&probe);
        assert!(best.is_none());
        assert_eq!(stats.scanned, 0);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn vertex_count_bound_prunes_tail() {
        let mut ix = ArchIndex::new();
        // Full match of the 5-vertex probe against the 5-vertex entry.
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 8, 2, 7])), 0.5);
        // A 2-vertex entry can reach at most len 2 < 5: must be pruned.
        ix.insert(ModelId(2), Arc::new(seq(&[4, 9])), 0.5);
        let probe = seq(&[4, 8, 8, 2, 7]);
        let (best, stats) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(1));
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn equal_length_tie_is_not_pruned() {
        // Probe shares its first two vertices with a long, low-quality
        // entry and *fully* matches a 2-vertex, high-quality entry. Both
        // reach len 2; the tie must go to quality — which requires NOT
        // pruning the smaller bucket when best_len == its vertex count
        // (and, symmetrically, when best_len == its bloom bound).
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 9, 9])), 0.1);
        ix.insert(ModelId(2), Arc::new(seq(&[4, 8])), 0.9);
        let probe = seq(&[4, 8, 2]);
        let entries = vec![
            (ModelId(1), Arc::new(seq(&[4, 8, 9, 9])), 0.1),
            (ModelId(2), Arc::new(seq(&[4, 8])), 0.9),
        ];
        check_equiv(&ix, &entries, &probe);
        let (best, _) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(2));
    }

    #[test]
    fn prefilter_rejects_disjoint_buckets() {
        // The 5-vertex winner shares the probe's first two vertices and
        // sorts first (most vertices). The 4-vertex decoys share only
        // the root: their vertex count (4) survives the count bound
        // (best_len = 2) but their blooms are disjoint from the probe's,
        // so the bloom bound rejects them without computing any LCP.
        let mut ix = ArchIndex::new();
        let winner = Arc::new(seq(&[4, 8, 77, 77, 77]));
        ix.insert(ModelId(1), Arc::clone(&winner), 0.5);
        let mut entries: Vec<(ModelId, Arc<CompactGraph>, f64)> = vec![(ModelId(1), winner, 0.5)];
        for i in 0..8u32 {
            let decoy = Arc::new(seq(&[4, 50 + i, 60 + i, 70 + i]));
            ix.insert(ModelId(10 + i as u64), Arc::clone(&decoy), 0.5);
            entries.push((ModelId(10 + i as u64), decoy, 0.5));
        }
        let probe = seq(&[4, 8, 99]);
        check_equiv(&ix, &entries, &probe);

        // `check_equiv` populated the answer cache; query a clone (fresh
        // cache) so the walk actually runs and its stats are observable.
        let ix = ix.clone();
        let (best, stats) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(1));
        // Bloom-bit collisions can only *demote* a rejection to a scan,
        // never break correctness; with these fixed FNV hashes most of
        // the 8 decoys are rejected.
        assert!(
            stats.prefiltered >= 5,
            "expected bloom rejections, got {stats:?}"
        );
        assert_eq!(
            stats.scanned + stats.memo_hits + stats.pruned,
            9,
            "every distinct arch accounted for: {stats:?}"
        );
        assert!(stats.prefiltered <= stats.pruned);

        // With the prefilter disabled every group member is evaluated.
        let (best_off, stats_off) = ix.best_ancestor_with(&probe, false);
        assert_eq!(best_off.unwrap().model, ModelId(1));
        assert_eq!(stats_off.prefiltered, 0);
        assert_eq!(stats_off.scanned + stats_off.memo_hits, 9);
    }

    #[test]
    fn memo_hits_on_repeat_and_invalidates_on_retire() {
        let mut ix = ArchIndex::new();
        let a = Arc::new(seq(&[4, 8, 8, 2]));
        let b = Arc::new(seq(&[4, 8, 9, 2]));
        ix.insert(ModelId(1), Arc::clone(&a), 0.5);
        ix.insert(ModelId(2), Arc::clone(&b), 0.4);
        let probe = seq(&[4, 8, 8, 2, 7]);

        // Prefilter off: this test pins the memo lifecycle, and the
        // bloom bound may legitimately skip the weaker bucket.
        let (best1, s1) = ix.best_ancestor_with(&probe, false);
        assert_eq!(s1.scanned, 2);
        assert_eq!(s1.memo_hits, 0);
        let (best2, s2) = ix.best_ancestor_with(&probe, false);
        assert_eq!(s2.scanned, 0);
        assert_eq!(s2.memo_hits, 2);
        assert_eq!(best1.as_ref().unwrap().model, best2.as_ref().unwrap().model);
        assert_eq!(ix.memo_len(), 2);

        // Retiring the winner purges its memo entries and changes the
        // answer — no stale ancestor survives.
        let winner = best1.unwrap().model;
        assert!(ix.remove(winner));
        assert_eq!(ix.memo_len(), 1);
        let (best3, _) = ix.best_ancestor_with(&probe, false);
        assert_ne!(best3.as_ref().unwrap().model, winner);
    }

    #[test]
    fn remove_keeps_shared_bucket_alive() {
        let mut ix = ArchIndex::new();
        let g = Arc::new(seq(&[4, 8, 2]));
        ix.insert(ModelId(1), Arc::clone(&g), 0.9);
        ix.insert(ModelId(2), Arc::clone(&g), 0.2);
        let probe = (*g).clone();
        let _ = ix.best_ancestor(&probe);
        assert_eq!(ix.memo_len(), 1);
        // Removing one member keeps the bucket (and its memo entries).
        assert!(ix.remove(ModelId(1)));
        assert_eq!(ix.memo_len(), 1);
        let (best, _) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(2));
        // Removing the last member drops the bucket and the memo.
        assert!(ix.remove(ModelId(2)));
        assert!(ix.is_empty());
        assert_eq!(ix.memo_len(), 0);
        assert!(!ix.remove(ModelId(2)));
    }

    #[test]
    fn insert_replaces_existing_model() {
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 2])), 0.5);
        ix.insert(ModelId(1), Arc::new(seq(&[4, 9, 2])), 0.7);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.distinct_architectures(), 1);
        let probe = seq(&[4, 9, 2]);
        let (best, _) = ix.best_ancestor(&probe);
        let best = best.unwrap();
        assert_eq!(best.model, ModelId(1));
        assert_eq!(best.lcp.len(), probe.len());
    }

    #[test]
    fn memo_capacity_is_bounded() {
        let mut ix = ArchIndex::with_memo_capacity(MEMO_SHARDS); // 1 entry/shard
        for i in 0..32u32 {
            ix.insert(ModelId(i as u64), Arc::new(seq(&[4, 8, 2 + i])), 0.5);
        }
        for i in 0..16u32 {
            let _ = ix.best_ancestor(&seq(&[4, 8, 100 + i]));
        }
        // 16 probes x 32 stored pairs, but at most 1 per shard survives.
        assert!(ix.memo_len() <= MEMO_SHARDS);
        // Bounded memo still answers correctly.
        let entries: Vec<(ModelId, Arc<CompactGraph>, f64)> = (0..32u32)
            .map(|i| (ModelId(i as u64), Arc::new(seq(&[4, 8, 2 + i])), 0.5))
            .collect();
        check_equiv(&ix, &entries, &seq(&[4, 8, 7]));
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut ix = ArchIndex::new();
        let g = Arc::new(seq(&[4, 8, 2]));
        ix.insert(ModelId(1), Arc::clone(&g), 0.9);
        let snap = ix.clone();

        // Mutations to the original never show through the clone.
        ix.insert(ModelId(2), Arc::new(seq(&[4, 9, 2])), 0.8);
        ix.remove(ModelId(1));
        assert_eq!(snap.len(), 1);
        assert!(snap.contains(ModelId(1)));
        assert!(!snap.contains(ModelId(2)));
        let (best, _) = snap.best_ancestor(&g);
        assert_eq!(best.unwrap().model, ModelId(1));

        // ...and the mutated original answers from its own state.
        assert!(!ix.contains(ModelId(1)));
        let (best2, _) = ix.best_ancestor(&seq(&[4, 9, 2]));
        assert_eq!(best2.unwrap().model, ModelId(2));
    }

    #[test]
    fn pattern_match_dedups_and_sorts() {
        use crate::pattern::LayerPattern;
        let mut ix = ArchIndex::new();
        let g = Arc::new(seq(&[4, 8, 2]));
        ix.insert(ModelId(9), Arc::clone(&g), 0.1);
        ix.insert(ModelId(3), Arc::clone(&g), 0.2);
        ix.insert(ModelId(5), Arc::new(seq(&[4, 8])), 0.3);
        let pattern = ArchPattern::any().with_layer(LayerPattern::DenseUnits { min: 2, max: 2 });
        let (matches, stats) = ix.match_pattern(&pattern);
        assert_eq!(
            matches.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
            vec![ModelId(3), ModelId(9)]
        );
        assert_eq!(stats.scanned, 2); // two distinct architectures
        assert_eq!(stats.deduped, 1);
    }

    #[test]
    fn pattern_prefilter_skips_kindless_buckets() {
        use crate::pattern::LayerPattern;
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 2])), 0.1);
        // A pattern requiring a kind no indexed graph has: every bucket
        // is rejected by the kind bitset, none evaluated.
        let pattern = ArchPattern::any().with_layer(LayerPattern::Kind("attention".into()));
        let (matches, stats) = ix.match_pattern(&pattern);
        assert!(matches.is_empty());
        assert_eq!(stats.scanned, 0);
        assert_eq!(stats.prefiltered, 1);
        assert_eq!(stats.pruned, 1);
        // Same answer with the prefilter off, paying the evaluation.
        let (matches_off, stats_off) = ix.match_pattern_with(&pattern, false);
        assert!(matches_off.is_empty());
        assert_eq!(stats_off.scanned, 1);
        assert_eq!(stats_off.prefiltered, 0);
    }

    #[test]
    fn stats_merge_sums() {
        let a = IndexQueryStats {
            candidates: 1,
            scanned: 2,
            memo_hits: 3,
            deduped: 4,
            pruned: 5,
            prefiltered: 6,
            answered: 7,
        };
        let m = a.merge(a);
        assert_eq!(m.candidates, 2);
        assert_eq!(m.scanned, 4);
        assert_eq!(m.memo_hits, 6);
        assert_eq!(m.deduped, 8);
        assert_eq!(m.pruned, 10);
        assert_eq!(m.prefiltered, 12);
        assert_eq!(m.answered, 14);
    }
}
