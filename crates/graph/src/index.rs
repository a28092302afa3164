//! Provider-side architecture index for ancestor queries.
//!
//! The naive LCP scan runs Algorithm 1 against *every* stored model on
//! every query — O(catalog × graph) work per request. [`ArchIndex`]
//! answers the same question, byte for byte, from an inverted index:
//!
//! 1. **Signature dedup** — catalog entries are bucketed by
//!    [`CompactGraph::arch_signature`]. The LCP depends only on vertex
//!    signatures and the edge relation — exactly what the architecture
//!    signature hashes — so `lcp()` runs at most once per *distinct*
//!    architecture; the best `(quality, model id)` inside the winning
//!    bucket is selected in O(bucket).
//! 2. **Cone postings** — every distinct architecture is posted under the
//!    cone hash of each of its vertices (see [`crate::prefilter`]):
//!    `cone → [(bucket, multiplicity)]`. A query hashes its own cones,
//!    sums `min(multiplicity)` out of the postings they hit into one
//!    upper bound per bucket on `|lcp(query, bucket)|`, and runs the real
//!    `lcp()` on buckets in descending bound, stopping when the next
//!    bound is *strictly* below the best length so far. (Strictly: a
//!    bucket whose bound equals `best_len` can still tie on length and
//!    win the quality tie-break, so `≤` termination would change
//!    winners; such a bucket is evaluated exactly when its best member
//!    would win that tie.) The root's cone is its signature alone, so
//!    its posting list is exactly the set of buckets Algorithm 1's base
//!    case admits; everything outside it is never looked at. Work is
//!    bounded by the postings the query's cones hit, not by the catalog.
//! 3. **Layer-kind bitset** — pattern scans skip buckets missing a
//!    required layer kind ([`PatternFilter`]).
//!
//! The index is a plain immutable value with copy-on-write parts: buckets
//! sit behind `Arc`s and the postings are a fixed array of `Arc`ed shards
//! keyed by cone-hash bits, so `Clone` is pointer bumps and a mutation of
//! a clone copies only the shards its architecture's cones fall in. An
//! updated clone is published atomically (see
//! [`crate::snapshot::SnapshotCell`]) while readers keep walking the
//! previous version; the read path has no interior mutability at all.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use evostore_tensor::{ContentHash, ModelId};
use serde::{Deserialize, Serialize};

use crate::compact::CompactGraph;
use crate::lcp::{lcp, LcpResult};
use crate::pattern::ArchPattern;
use crate::prefilter::{self, Cone, PatternFilter};

/// Posting shards (the low cone-hash bits pick one). `Clone` bumps one
/// pointer per shard; a mutation copies, flat, each shard one of its
/// architecture's cones falls in — `1 / POSTING_SHARDS` of the postings
/// apiece.
const POSTING_SHARDS: usize = 256;

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
    /// Retired with the pairwise LCP memo: always 0. Kept so replies and
    /// stored results keep their shape.
    pub memo_hits: u64,
    /// Models skipped because another model with the same architecture
    /// signature already covered them (the dedup saving).
    pub deduped: u64,
    /// Distinct architectures skipped outright: no shared root, a cone
    /// bound proving they cannot win or tie, or a missing layer kind
    /// (pattern queries).
    pub pruned: u64,
    /// Subset of `pruned` that shared the query's root and was cut by
    /// the cone bound, or was rejected by the layer-kind bitset.
    #[serde(default)]
    pub prefiltered: u64,
    /// Retired with the per-snapshot answer cache: always 0.
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
    /// The LCP of the query graph against the winner's architecture.
    pub lcp: LcpResult,
}

impl IndexCandidate {
    /// Does `(len, quality, model)` beat this candidate under the scan
    /// order: longer prefix, then higher quality, then lower model id?
    fn loses_to(&self, len: usize, quality: f64, model: ModelId) -> bool {
        len > self.lcp.len()
            || (len == self.lcp.len()
                && (quality > self.quality || (quality == self.quality && model < self.model)))
    }
}

/// One distinct architecture and the models that share it.
#[derive(Clone)]
struct Bucket {
    /// Architecture signature (the key of `by_sig`).
    sig: ContentHash,
    /// Representative graph (all members are structurally identical).
    graph: Arc<CompactGraph>,
    /// Bitset of layer-kind tags present in the graph.
    kind_bits: u64,
    /// Cone multiset of `graph`, as posted.
    cones: Vec<(Cone, u32)>,
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

    /// Run Algorithm 1 against this architecture and fold the outcome
    /// into `best`.
    fn evaluate(
        &self,
        g: &CompactGraph,
        best: &mut Option<IndexCandidate>,
        stats: &mut IndexQueryStats,
    ) {
        stats.scanned += 1;
        stats.deduped += self.models.len() as u64 - 1;
        let lcp = lcp(g, &self.graph);
        if lcp.is_empty() {
            return;
        }
        let (model, quality) = self.best_member();
        if best
            .as_ref()
            .is_none_or(|b| b.loses_to(lcp.len(), quality, model))
        {
            *best = Some(IndexCandidate {
                model,
                quality,
                lcp,
            });
        }
    }
}

/// One posting: the bucket in slab slot `slot` has `count` vertices
/// whose cone is `cone`. A shard keeps its postings sorted by
/// `(cone, slot)`, so a cone's posting list is one contiguous run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Posting {
    cone: Cone,
    slot: u32,
    count: u32,
}

/// Slots per slab chunk.
const SLAB_CHUNK: usize = 64;

/// The bucket table, in copy-on-write chunks: `Clone` bumps one pointer
/// per chunk and a mutation copies the one chunk its slot is in, so
/// neither grows with the catalog the way a flat table of `Arc`s would.
#[derive(Clone, Default)]
struct Slab {
    chunks: Vec<Arc<[Option<Arc<Bucket>>; SLAB_CHUNK]>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
}

impl Slab {
    fn slots(&self) -> usize {
        self.chunks.len() * SLAB_CHUNK
    }

    fn get(&self, slot: u32) -> Option<&Arc<Bucket>> {
        self.chunks[slot as usize / SLAB_CHUNK][slot as usize % SLAB_CHUNK].as_ref()
    }

    fn entry(&mut self, slot: u32) -> &mut Option<Arc<Bucket>> {
        &mut Arc::make_mut(&mut self.chunks[slot as usize / SLAB_CHUNK])[slot as usize % SLAB_CHUNK]
    }

    /// A vacant slot, growing the slab by a chunk when none is left.
    fn vacant(&mut self) -> u32 {
        if self.free.is_empty() {
            let base = self.slots() as u32;
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
            self.free.extend((base..base + SLAB_CHUNK as u32).rev());
        }
        self.free.pop().expect("refilled above")
    }

    fn live(&self) -> impl Iterator<Item = (u32, &Arc<Bucket>)> {
        let slots = self.chunks.iter().flat_map(|c| c.iter());
        slots
            .enumerate()
            .filter_map(|(slot, b)| Some((slot as u32, b.as_ref()?)))
    }
}

/// Incrementally maintained index over a catalog of `(model, graph,
/// quality)` entries, answering best-ancestor (LCP) and pattern queries
/// without touching structurally duplicate entries.
///
/// Invariants ([`ArchIndex::verify`] checks them):
/// * every indexed model appears in exactly one bucket, the one keyed by
///   its graph's architecture signature;
/// * a bucket exists iff it has at least one member;
/// * postings mirror buckets: a bucket's every cone is posted once, with
///   its multiplicity, under the bucket's slot, and no posting names a
///   vacant slot.
///
/// `Clone` is cheap (copy-on-write `Arc`s), which is what lets the
/// provider publish updated indexes as immutable snapshots.
#[derive(Clone)]
pub struct ArchIndex {
    /// Bucket slab; postings name a bucket by its slot here.
    buckets: Slab,
    /// arch signature → slot of the bucket of that architecture.
    by_sig: HashMap<ContentHash, u32>,
    /// model → slot of its bucket (drives removal).
    model_slot: HashMap<ModelId, u32>,
    /// Postings, sharded by the cone's low bits.
    postings: Box<[Arc<Vec<Posting>>]>,
}

impl Default for ArchIndex {
    fn default() -> Self {
        ArchIndex::new()
    }
}

fn shard_of(cone: Cone) -> usize {
    cone as usize % POSTING_SHARDS
}

impl ArchIndex {
    /// Empty index.
    pub fn new() -> ArchIndex {
        ArchIndex {
            buckets: Slab::default(),
            by_sig: HashMap::new(),
            model_slot: HashMap::new(),
            postings: (0..POSTING_SHARDS).map(|_| Arc::default()).collect(),
        }
    }

    /// Indexed models.
    pub fn len(&self) -> usize {
        self.model_slot.len()
    }

    /// True when no model is indexed.
    pub fn is_empty(&self) -> bool {
        self.model_slot.is_empty()
    }

    /// Is `model` indexed?
    pub fn contains(&self, model: ModelId) -> bool {
        self.model_slot.contains_key(&model)
    }

    /// Distinct architectures indexed (the dedup denominator).
    pub fn distinct_architectures(&self) -> usize {
        self.by_sig.len()
    }

    /// Distinct cone hashes posted (counted on demand, one pass over
    /// the postings).
    pub fn cone_keys(&self) -> usize {
        let runs = |shard: &Arc<Vec<Posting>>| shard.chunk_by(|a, b| a.cone == b.cone).count();
        self.postings.iter().map(runs).sum()
    }

    /// Postings over all cones (one per distinct cone of each distinct
    /// architecture).
    pub fn postings(&self) -> usize {
        self.postings.iter().map(|shard| shard.len()).sum()
    }

    /// The run of postings under `cone`.
    fn posting_list(&self, cone: Cone) -> &[Posting] {
        let shard = &self.postings[shard_of(cone)];
        let from = shard.partition_point(|p| p.cone < cone);
        let len = shard[from..].partition_point(|p| p.cone == cone);
        &shard[from..from + len]
    }

    /// Index `model`. Replaces any previous entry for the same id.
    /// `graph` must satisfy [`CompactGraph::validate`].
    pub fn insert(&mut self, model: ModelId, graph: Arc<CompactGraph>, quality: f64) {
        self.remove(model);
        let sig = graph.arch_signature();
        let slot = match self.by_sig.get(&sig) {
            Some(&slot) => {
                let bucket = self.buckets.entry(slot).as_mut();
                let bucket = bucket.expect("by_sig names live buckets");
                Arc::make_mut(bucket).models.push((model, quality));
                slot
            }
            None => {
                let slot = self.buckets.vacant();
                let cones = prefilter::cone_counts(&graph);
                for &(cone, count) in &cones {
                    let shard = Arc::make_mut(&mut self.postings[shard_of(cone)]);
                    let posting = Posting { cone, slot, count };
                    shard.insert(shard.partition_point(|p| *p < posting), posting);
                }
                *self.buckets.entry(slot) = Some(Arc::new(Bucket {
                    sig,
                    kind_bits: prefilter::kind_bits(&graph),
                    graph,
                    cones,
                    models: vec![(model, quality)],
                }));
                self.by_sig.insert(sig, slot);
                slot
            }
        };
        self.model_slot.insert(model, slot);
    }

    /// Un-index `model`; returns whether it was present. Dropping the
    /// last member of an architecture removes its bucket and its
    /// postings.
    pub fn remove(&mut self, model: ModelId) -> bool {
        let Some(slot) = self.model_slot.remove(&model) else {
            return false;
        };
        let entry = self.buckets.entry(slot);
        let bucket = entry.as_mut().expect("model_slot names live buckets");
        if bucket.models.len() > 1 {
            Arc::make_mut(bucket).models.retain(|&(m, _)| m != model);
            return true;
        }
        let bucket = entry.take().expect("checked live above");
        self.buckets.free.push(slot);
        self.by_sig.remove(&bucket.sig);
        for &(cone, count) in &bucket.cones {
            let shard = Arc::make_mut(&mut self.postings[shard_of(cone)]);
            let at = shard
                .binary_search(&Posting { cone, slot, count })
                .expect("a bucket's cones are posted");
            shard.remove(at);
        }
        true
    }

    /// Best ancestor of `g` over the indexed catalog: longest LCP, ties
    /// broken by higher quality, then lower model id — byte-identical to
    /// the brute-force scan over every member. `g` must satisfy
    /// [`CompactGraph::validate`].
    pub fn best_ancestor(&self, g: &CompactGraph) -> (Option<IndexCandidate>, IndexQueryStats) {
        let mut stats = IndexQueryStats {
            candidates: self.len() as u64,
            ..IndexQueryStats::default()
        };
        let total_archs = self.distinct_architectures() as u64;
        let cones = prefilter::cone_hashes(g);
        // The root's posting list is every bucket the base case of
        // Algorithm 1 admits; outside it there is nothing to bound.
        let rooted = cones
            .first()
            .map_or(&[][..], |&root| self.posting_list(root));
        let mut bound = vec![0u32; self.buckets.slots()];
        for (cone, count) in prefilter::cone_multiset(cones) {
            for p in self.posting_list(cone) {
                bound[p.slot as usize] += count.min(p.count);
            }
        }
        // Descending bound; the slot only makes the order total.
        let mut queue: BinaryHeap<(u32, u32)> = rooted
            .iter()
            .map(|p| (bound[p.slot as usize], p.slot))
            .collect();
        let mut best: Option<IndexCandidate> = None;
        while let Some((bound, slot)) = queue.pop() {
            let bucket = self.buckets.get(slot).expect("postings name live buckets");
            if let Some(b) = &best {
                if (bound as usize) < b.lcp.len() {
                    break;
                }
                // At `bound == best_len` it can at most tie on length,
                // so it is worth an `lcp()` only if it would win the tie.
                let (model, quality) = bucket.best_member();
                if !b.loses_to(bound as usize, quality, model) {
                    continue;
                }
            }
            bucket.evaluate(g, &mut best, &mut stats);
        }
        stats.pruned = total_archs - stats.scanned;
        stats.prefiltered = rooted.len() as u64 - stats.scanned;
        (best, stats)
    }

    /// The exhaustive walk: Algorithm 1 against every distinct
    /// architecture, no bound consulted. The reference the unit tests
    /// hold [`ArchIndex::best_ancestor`] to.
    #[cfg(test)]
    fn best_ancestor_exhaustive(
        &self,
        g: &CompactGraph,
    ) -> (Option<IndexCandidate>, IndexQueryStats) {
        let mut stats = IndexQueryStats {
            candidates: self.len() as u64,
            ..IndexQueryStats::default()
        };
        let mut best = None;
        for (_, bucket) in self.buckets.live() {
            bucket.evaluate(g, &mut best, &mut stats);
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
            candidates: self.len() as u64,
            ..IndexQueryStats::default()
        };
        let pf = PatternFilter::new(pattern);
        let mut matches = Vec::new();
        for (_, bucket) in self.buckets.live() {
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

    /// Check the invariants listed on the type: slot maps, buckets and
    /// postings all describe the same catalog.
    pub fn verify(&self) -> Result<(), String> {
        let live = self.buckets.live().count();
        if live != self.by_sig.len() || live + self.buckets.free.len() != self.buckets.slots() {
            return Err(format!(
                "{live} live buckets, {} signatures, {} free of {} slots",
                self.by_sig.len(),
                self.buckets.free.len(),
                self.buckets.slots()
            ));
        }
        let (mut members, mut posted_by_buckets) = (0, 0);
        for (slot, bucket) in self.buckets.live() {
            if bucket.models.is_empty() || self.by_sig.get(&bucket.sig) != Some(&slot) {
                return Err(format!("bucket in slot {slot} is empty or mis-keyed"));
            }
            if bucket
                .models
                .iter()
                .any(|(m, _)| self.model_slot.get(m) != Some(&slot))
            {
                return Err(format!("a member of slot {slot} maps elsewhere"));
            }
            for &(cone, count) in &bucket.cones {
                let shard = &self.postings[shard_of(cone)];
                if shard.binary_search(&Posting { cone, slot, count }).is_err() {
                    return Err(format!(
                        "slot {slot}: cone {cone:016x} x{count} is not posted"
                    ));
                }
            }
            members += bucket.models.len();
            posted_by_buckets += bucket.cones.len();
        }
        if members != self.model_slot.len() {
            return Err(format!(
                "{members} bucket members, {} indexed models",
                self.model_slot.len()
            ));
        }
        // Every bucket cone was found above, so equal totals leave no
        // room for a stray posting (vacant slot, stale cone).
        if self.postings() != posted_by_buckets {
            return Err(format!(
                "{} postings, buckets account for {posted_by_buckets}",
                self.postings()
            ));
        }
        for (i, shard) in self.postings.iter().enumerate() {
            if !shard.windows(2).all(|w| w[0] < w[1]) || shard.iter().any(|p| shard_of(p.cone) != i)
            {
                return Err(format!(
                    "posting shard {i} is unsorted or holds a foreign cone"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::generator::GenomeSpace;
    use crate::layer::{Activation, LayerConfig, LayerKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn input(d: u32) -> LayerConfig {
        LayerConfig::new("in", LayerKind::Input { shape: vec![d] })
    }

    fn dense(i: u32, u: u32) -> LayerConfig {
        LayerConfig::new(
            "d",
            LayerKind::Dense {
                in_features: i,
                units: u,
                activation: Activation::ReLU,
            },
        )
    }

    fn seq(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(input(units[0]));
        for w in units.windows(2) {
            prev = a.chain(prev, dense(w[0], w[1]));
        }
        flatten(&a).unwrap()
    }

    /// The indexed answer must be the exhaustive walk's: same winner,
    /// same quality, same `LcpResult`.
    fn check_equiv(index: &ArchIndex, g: &CompactGraph) -> IndexQueryStats {
        let (got, stats) = index.best_ancestor(g);
        let (want, walked) = index.best_ancestor_exhaustive(g);
        assert_eq!(walked.scanned, index.distinct_architectures() as u64);
        assert_eq!(
            stats.scanned + stats.pruned,
            walked.scanned,
            "every distinct arch accounted for: {stats:?}"
        );
        assert!(stats.prefiltered <= stats.pruned);
        match (got, want) {
            (None, None) => {}
            (Some(c), Some(w)) => {
                assert_eq!(c.model, w.model);
                assert_eq!(c.quality, w.quality);
                assert_eq!(c.lcp, w.lcp);
            }
            (got, want) => panic!(
                "index/exhaustive mismatch: index={:?} exhaustive={:?}",
                got.map(|c| c.model),
                want.map(|w| w.model)
            ),
        }
        stats
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
        assert_eq!(stats.prefiltered, 0);
    }

    #[test]
    fn vertex_count_bound_prunes_tail() {
        let mut ix = ArchIndex::new();
        // Full match of the 5-vertex probe against the 5-vertex entry.
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 8, 2, 7])), 0.5);
        // A 2-vertex entry can reach at most len 2 < 5 (the cone bound
        // never exceeds the entry's vertex count; here it is 1, the
        // shared root): never evaluated.
        ix.insert(ModelId(2), Arc::new(seq(&[4, 9])), 0.5);
        let probe = seq(&[4, 8, 8, 2, 7]);
        let (best, stats) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(1));
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.pruned, 1);
        assert_eq!(stats.prefiltered, 1);
    }

    #[test]
    fn equal_length_tie_is_not_pruned() {
        // Probe shares its first two vertices with a long, low-quality
        // entry and *fully* matches a 2-vertex, high-quality entry. Both
        // reach len 2 and both have bound 2; the tie must go to quality —
        // which requires NOT stopping when the next bound equals best_len.
        let long_low = (ModelId(1), Arc::new(seq(&[4, 8, 9, 9])), 0.1);
        let short_high = (ModelId(2), Arc::new(seq(&[4, 8])), 0.9);
        let probe = seq(&[4, 8, 2]);
        // Equal bounds pop higher slot first: in this order the
        // low-quality entry is evaluated first and the other must follow.
        let mut ix = ArchIndex::new();
        for (m, g, q) in [&short_high, &long_low] {
            ix.insert(*m, Arc::clone(g), *q);
        }
        assert_eq!(check_equiv(&ix, &probe).scanned, 2);
        assert_eq!(ix.best_ancestor(&probe).0.unwrap().model, ModelId(2));
        // In the other order the winner is found first, and an entry
        // that could only tie and lose the tie costs no `lcp()`.
        let mut ix = ArchIndex::new();
        for (m, g, q) in [&long_low, &short_high] {
            ix.insert(*m, Arc::clone(g), *q);
        }
        assert_eq!(check_equiv(&ix, &probe).scanned, 1);
        assert_eq!(ix.best_ancestor(&probe).0.unwrap().model, ModelId(2));
    }

    #[test]
    fn prefilter_rejects_disjoint_buckets() {
        // The winner shares the probe's first two vertices. The decoys
        // share only the root: their bound is 1, below the winner's
        // length 2, so none of them is evaluated.
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 77, 77, 77])), 0.5);
        for i in 0..8u32 {
            let decoy = Arc::new(seq(&[4, 50 + i, 60 + i, 70 + i]));
            ix.insert(ModelId(10 + i as u64), decoy, 0.5);
        }
        let probe = seq(&[4, 8, 99]);
        let stats = check_equiv(&ix, &probe);
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.prefiltered, 8);
        let (best, _) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(1));
    }

    /// Two same-signature siblings whose downstreams are swapped between
    /// query and ancestor: every cone is shared, so the bound is the
    /// whole graph, but the greedy binding pairs the siblings in edge
    /// order and both downstream vertices fail. The walk must not take
    /// the first (loose) bound for the answer.
    #[test]
    fn loose_bound_keeps_the_walk_going_until_nothing_can_tie() {
        // in -> x1 -> `first`; in -> x2 -> `second`; x1 and x2 alike.
        let forked = |first: u32, second: u32| {
            let mut m = Architecture::new("m");
            let i = m.add_layer(input(4));
            let x1 = m.chain(i, dense(4, 8));
            let x2 = m.chain(i, dense(4, 8));
            m.chain(x1, dense(8, first));
            m.chain(x2, dense(8, second));
            flatten(&m).unwrap()
        };
        let probe = forked(5, 6);
        let swapped = Arc::new(forked(6, 5));
        let bound = prefilter::cone_bound(
            &prefilter::cone_counts(&probe),
            &prefilter::cone_counts(&swapped),
        );
        assert_eq!(
            (bound, lcp(&probe, &swapped).len()),
            (5, 3),
            "bound is loose"
        );

        // in -> x -> 5: bound 3, reached in full. in -> x -> 7: bound 2.
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), swapped, 0.1);
        ix.insert(ModelId(2), Arc::new(seq(&[4, 8, 5])), 0.9);
        ix.insert(ModelId(3), Arc::new(seq(&[4, 8, 7])), 1.0);
        let stats = check_equiv(&ix, &probe);
        // Bound 5 yields 3; bound 3 can still tie and does, winning on
        // quality; bound 2 cannot, whatever its quality.
        assert_eq!(stats.scanned, 2);
        assert_eq!(stats.prefiltered, 1);
        let (best, _) = ix.best_ancestor(&probe);
        let best = best.unwrap();
        assert_eq!((best.model, best.lcp.len()), (ModelId(2), 3));
    }

    /// The shape `catalog_churn` has: one input layer, one width (so every
    /// graph has about the same size and the root posting is the whole
    /// catalog), families of 30 chained mutations.
    #[test]
    fn mutation_families_are_answered_from_a_few_buckets() {
        let space = GenomeSpace {
            input_dim: 16,
            widths: vec![16],
            attn_dims: vec![16],
            attn_heads: vec![2, 4],
            min_cells: 10,
            max_cells: 10,
            ..GenomeSpace::attn_like()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut ix = ArchIndex::new();
        let mut genomes = Vec::new();
        for _ in 0..12 {
            let mut genome = space.sample(&mut rng);
            for _ in 0..30 {
                let g = flatten(&space.materialize(&genome)).unwrap();
                let id = ModelId(genomes.len() as u64);
                ix.insert(id, Arc::new(g), (id.0 % 7) as f64 / 7.0);
                let next = space.mutate(&genome, &mut rng);
                genomes.push(std::mem::replace(&mut genome, next));
            }
        }
        ix.verify().unwrap();
        let distinct = ix.distinct_architectures() as u64;
        assert!(distinct > 200, "population collapsed to {distinct}");

        let mut scanned = 0;
        let probes = 96u64;
        for i in 0..probes {
            let member = &genomes[(i as usize * 37) % genomes.len()];
            let genome = match i % 4 {
                0 | 1 => space.mutate(member, &mut rng),
                2 => member.clone(),
                _ => space.sample(&mut rng),
            };
            let probe = flatten(&space.materialize(&genome)).unwrap();
            scanned += check_equiv(&ix, &probe).scanned;
        }
        assert!(
            scanned * 10 < distinct * probes,
            "{scanned} LCPs over {probes} probes of {distinct} architectures"
        );
    }

    #[test]
    fn retired_architecture_leaves_no_postings() {
        let mut ix = ArchIndex::new();
        let a = Arc::new(seq(&[4, 8, 8, 2]));
        let b = Arc::new(seq(&[4, 8, 9, 2]));
        ix.insert(ModelId(1), Arc::clone(&a), 0.5);
        let only_a = (ix.cone_keys(), ix.postings());
        assert_eq!(only_a, (4, 4));
        ix.insert(ModelId(2), Arc::clone(&b), 0.4);
        // `in` and `in -> 8` are shared cones: two keys, four entries.
        assert_eq!((ix.cone_keys(), ix.postings()), (6, 8));
        ix.verify().unwrap();
        let pinned = ix.clone();

        let probe = seq(&[4, 8, 9, 2, 7]);
        assert_eq!(ix.best_ancestor(&probe).0.unwrap().model, ModelId(2));
        assert!(ix.remove(ModelId(2)));
        ix.verify().unwrap();
        assert_eq!((ix.cone_keys(), ix.postings()), only_a);
        // No stale ancestor: the answer falls back to the survivor...
        let (best, stats) = ix.best_ancestor(&probe);
        assert_eq!(best.unwrap().model, ModelId(1));
        assert_eq!(stats.scanned + stats.pruned, 1);
        // ...while the clone taken before the retire still has it.
        pinned.verify().unwrap();
        assert_eq!(pinned.best_ancestor(&probe).0.unwrap().model, ModelId(2));
        // A freed slot is reused without resurrecting anything.
        ix.insert(ModelId(3), Arc::new(seq(&[4, 7])), 0.9);
        ix.verify().unwrap();
        assert_eq!(check_equiv(&ix, &probe).scanned, 1);
    }

    #[test]
    fn remove_keeps_shared_bucket_alive() {
        let mut ix = ArchIndex::new();
        let g = Arc::new(seq(&[4, 8, 2]));
        ix.insert(ModelId(1), Arc::clone(&g), 0.9);
        ix.insert(ModelId(2), Arc::clone(&g), 0.2);
        let posted = ix.postings();
        // Removing one member keeps the bucket (and its postings).
        assert!(ix.remove(ModelId(1)));
        assert_eq!(ix.postings(), posted);
        let (best, _) = ix.best_ancestor(&g);
        assert_eq!(best.unwrap().model, ModelId(2));
        // Removing the last member drops the bucket and the postings.
        assert!(ix.remove(ModelId(2)));
        assert!(ix.is_empty());
        assert_eq!((ix.cone_keys(), ix.postings()), (0, 0));
        assert!(ix.best_ancestor(&g).0.is_none());
        assert!(!ix.remove(ModelId(2)));
        ix.verify().unwrap();
    }

    #[test]
    fn insert_replaces_existing_model() {
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 2])), 0.5);
        ix.insert(ModelId(1), Arc::new(seq(&[4, 9, 2])), 0.7);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.distinct_architectures(), 1);
        ix.verify().unwrap();
        let probe = seq(&[4, 9, 2]);
        let (best, _) = ix.best_ancestor(&probe);
        let best = best.unwrap();
        assert_eq!(best.model, ModelId(1));
        assert_eq!(best.lcp.len(), probe.len());
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
        snap.verify().unwrap();

        // ...and the mutated original answers from its own state.
        assert!(!ix.contains(ModelId(1)));
        let (best2, _) = ix.best_ancestor(&seq(&[4, 9, 2]));
        assert_eq!(best2.unwrap().model, ModelId(2));
        ix.verify().unwrap();
    }

    #[test]
    fn verify_names_a_posting_that_outlived_its_bucket() {
        let mut ix = ArchIndex::new();
        ix.insert(ModelId(1), Arc::new(seq(&[4, 8, 2])), 0.5);
        let cone = prefilter::cone_hashes(&seq(&[4, 8]))[1];
        let shard = Arc::make_mut(&mut ix.postings[shard_of(cone)]);
        let stray = Posting {
            cone,
            slot: 9,
            count: 1,
        };
        shard.insert(shard.partition_point(|p| *p < stray), stray);
        assert!(ix.verify().unwrap_err().contains("buckets account for"));
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
