//! `nas_evolve`: the paper's Fig 8 loop — aged-evolution NAS.
//!
//! Two islands evolve side by side, one client thread each. Per
//! candidate: mutate a member, ask the repository for the best ancestor
//! (`query_best_ancestor`), fetch the shared prefix (`fetch_prefix`),
//! derive the owner map and store the candidate (`get_meta` +
//! `OwnerMap::derive` + `store_model`), and retire the island's oldest
//! member. The islands use different input widths, so no candidate of one
//! ever shares a prefix with the other and each island's op trace depends
//! on the seed alone. Every layer does some work here, and the two
//! clients contend on catalog snapshots and reference counts.
//!
//! The numbers must not depend on which seed was drawn, so the search is
//! kept from drifting: parents take turns (the population is 16 lineages
//! of 2 members, and the oldest member is always in the lineage whose
//! turn it is), every 8th generation of a lineage is a fresh random
//! candidate, and all layers share one width, so a run sees some hundred
//! independent founders of similar size instead of the descendants of
//! one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use evostore_core::messages::ModelMetaReply;
use evostore_core::{Deployment, EvoStoreClient, OwnerMap};
use evostore_graph::{flatten, Genome, GenomeSpace};
use evostore_tensor::{ModelId, TensorKey};

use super::{audit, memory_deployment, memory_probes, merged_stats, outcome, repeat_setup, retire};
use crate::gen::{owned_tensors, SplitMix64};
use crate::harness::{stored_bytes, tensor_bytes, Ctx, RunCfg, StopRule};
use crate::metrics::{Outcome, Readouts};
use crate::probe::{LoadInputs, StoreInputs};
use crate::trace::Class;

const ISLANDS: usize = 2;
/// Lineages per island; the population is twice that.
const LINEAGES: usize = 16;
const QUICK_LINEAGES: usize = 3;
const LINEAGE_MEMBERS: usize = 2;
/// Every how many generations a lineage restarts from a random genome.
const RESTART_EVERY: u64 = 8;
const QUICK_CYCLES: u64 = 24;

struct Member {
    id: ModelId,
    genome: Genome,
    keys: Vec<TensorKey>,
    bytes: u64,
}

struct Island {
    client: EvoStoreClient,
    ctx: Ctx,
    space: GenomeSpace,
    rng: SplitMix64,
    population: VecDeque<Member>,
    /// Model ids of this island: `index + ISLANDS * n`.
    next_id: u64,
    /// Candidates evaluated since the population was filled.
    generation: u64,
}

struct State {
    dep: Deployment,
    islands: Vec<Island>,
    /// Bytes of all live candidates (both islands), stored whole once.
    live_bytes: AtomicU64,
}

/// The attention-style space with every width option collapsed to one,
/// so candidates differ in structure, not in size by an order of
/// magnitude.
fn space(island: usize) -> GenomeSpace {
    GenomeSpace {
        input_dim: [256, 192][island],
        widths: vec![384],
        attn_dims: vec![192],
        min_cells: 10,
        max_cells: 12,
        kind_weights: [5, 1, 3, 1, 2, 2],
        ..GenomeSpace::attn_like()
    }
}

impl Island {
    fn fresh_id(&mut self) -> ModelId {
        let id = ModelId(self.next_id);
        self.next_id += ISLANDS as u64;
        id
    }

    /// Store a from-scratch candidate (population fill, and the fallback
    /// when no ancestor shares a prefix).
    fn store_fresh(&mut self, genome: Genome, live_bytes: &AtomicU64) {
        let id = self.fresh_id();
        let Island {
            client,
            ctx,
            space,
            rng,
            ..
        } = &mut *self;
        let graph = flatten(&space.materialize(&genome)).expect("genome materializes");
        let quality = rng.unit();
        let map = OwnerMap::fresh(id, &graph);
        let tensors = owned_tensors(&graph, &map, rng);
        ctx.expect(&tensors);
        let written = tensor_bytes(&tensors);
        if ctx
            .timed(Class::Store, client, |c| {
                c.store_model(graph.clone(), map.clone(), None, quality, &tensors)
            })
            .is_none()
        {
            return;
        }
        ctx.note(b'f', id.0, written);
        if let Some(p) = ctx.probes.as_mut() {
            p.catalog_insert(&mut ctx.tracer, None, id, &graph, quality);
        }
        live_bytes.fetch_add(written, Ordering::Relaxed);
        self.population.push_back(Member {
            id,
            genome,
            keys: map.all_tensor_keys(),
            bytes: written,
        });
    }

    /// One candidate: query, fetch, store derived, retire the oldest.
    fn cycle(&mut self, dep: &Deployment, live_bytes: &AtomicU64, sample_space: bool) {
        let (child, arch, graph) = {
            let Island {
                ctx,
                space,
                rng,
                population,
                generation,
                ..
            } = &mut *self;
            ctx.loadgen(|_| {
                // The population is a queue of lineages taking turns: the
                // newest member of the lineage at the front is the one
                // that entered `lineages` candidates ago.
                let lineages = population.len() / LINEAGE_MEMBERS;
                let (sweep, lineage) =
                    (*generation / lineages as u64, *generation % lineages as u64);
                // Staggered, so every sweep restarts a few lineages.
                let restart = (sweep + lineage) % RESTART_EVERY == 0;
                *generation += 1;
                let child = if restart {
                    space.sample(rng)
                } else {
                    space.mutate(&population[population.len() - lineages].genome, rng)
                };
                let arch = space.materialize(&child);
                let graph = flatten(&arch).expect("genome materializes");
                (child, arch, graph)
            })
        };
        let id = self.fresh_id();
        let Island {
            client,
            ctx,
            rng,
            population,
            ..
        } = &mut *self;
        let quality = rng.unit();

        let Some(found) = ctx.timed(Class::Query, client, |c| c.query_best_ancestor(&graph)) else {
            return;
        };
        ctx.end_query_round(1);
        ctx.replay(found.op, |p, t, op| {
            p.replay_query(t, op, &graph, Some(&arch), found.rpc_calls)
        });
        let Some(best) = found.value.into_inner() else {
            // Every member of the island starts from the same input
            // layer, so some ancestor always shares at least that.
            ctx.fail(format!("candidate {id}: no ancestor shares a prefix"));
            return;
        };

        let Some(fetched) = ctx.timed(Class::Load, client, |c| c.fetch_prefix(&best)) else {
            return;
        };
        let (prefix_meta, prefix) = &fetched.value;
        let read = tensor_bytes(prefix);
        ctx.moved(Class::Load, read, fetched.elapsed);
        ctx.note(b'l', best.model.0, read);
        ctx.loadgen(|ctx| {
            let verdict = ctx.oracle.check(prefix, None);
            ctx.verify(verdict.map_err(|e| format!("prefix of {}: {e}", best.model)));
        });
        ctx.replay(fetched.op, |p, t, op| {
            p.replay_load(
                t,
                op,
                &LoadInputs {
                    meta: prefix_meta,
                    tensors: prefix,
                    bases: None,
                    rpc_calls: fetched.rpc_calls,
                },
            )
        });
        drop(fetched);

        let Some(meta) = ctx.timed(Class::GetMeta, client, |c| c.get_meta(best.model)) else {
            return;
        };
        let meta: ModelMetaReply = meta.value;
        let map = OwnerMap::derive(id, &graph, &best.lcp, &meta.owner_map);
        let tensors = ctx.loadgen(|ctx| {
            let tensors = owned_tensors(&graph, &map, rng);
            ctx.expect(&tensors);
            tensors
        });
        let written = tensor_bytes(&tensors);
        let Some(stored) = ctx.timed(Class::Store, client, |c| {
            c.store_model(
                graph.clone(),
                map.clone(),
                Some(best.model),
                quality,
                &tensors,
            )
        }) else {
            return;
        };
        ctx.moved(Class::Store, written, stored.elapsed);
        ctx.note(b's', id.0, written);
        ctx.replay(stored.op, |p, t, op| {
            p.replay_store(
                t,
                op,
                &StoreInputs {
                    graph: &graph,
                    map: &map,
                    parent: Some(best.model),
                    quality,
                    tensors: &tensors,
                    bases: None,
                    derived_from: Some((&best.lcp, &meta.owner_map)),
                    rpc_calls: stored.rpc_calls,
                },
            )
        });
        if let Some(p) = ctx.probes.as_mut() {
            p.catalog_insert(&mut ctx.tracer, stored.op, id, &graph, quality);
        }
        let bytes = graph.total_param_bytes() as u64;
        live_bytes.fetch_add(bytes, Ordering::Relaxed);
        population.push_back(Member {
            id,
            genome: child,
            keys: map.all_tensor_keys(),
            bytes,
        });

        let old = population.pop_front().expect("population is never empty");
        if retire(ctx, client, old.id, &old.keys) {
            live_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        if sample_space {
            ctx.sample_space(stored_bytes(dep), live_bytes.load(Ordering::Relaxed));
        }
        ctx.tally(|r| r.cycles += 1);
    }
}

fn setup(cfg: &RunCfg) -> State {
    let dep = memory_deployment();
    let epoch = Instant::now();
    let mut seeds = SplitMix64::new(cfg.seed);
    let mut islands: Vec<Island> = (0..ISLANDS)
        .map(|i| Island {
            client: dep.client(),
            ctx: Ctx::new(cfg, epoch, i as u32, memory_probes(cfg, &dep)),
            space: space(i),
            rng: seeds.fork(i as u64),
            population: VecDeque::new(),
            next_id: i as u64 + ISLANDS as u64,
            generation: 0,
        })
        .collect();
    let live_bytes = AtomicU64::new(0);
    let fill = cfg.scaled(LINEAGES, QUICK_LINEAGES) * LINEAGE_MEMBERS;
    // Population fill doubles as warm-up (rayon pool, allocator).
    std::thread::scope(|scope| {
        for island in &mut islands {
            let live_bytes = &live_bytes;
            scope.spawn(move || {
                for _ in 0..fill {
                    let genome = island.space.sample(&mut island.rng);
                    island.store_fresh(genome, live_bytes);
                }
            });
        }
    });
    State {
        dep,
        islands,
        live_bytes,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (mut st, setup_s) = repeat_setup(cfg, || setup(cfg));
    let mut readouts = Readouts {
        before: merged_stats(&st.dep),
        ..Default::default()
    };
    let (dep, live_bytes) = (&st.dep, &st.live_bytes);
    let stop: StopRule = cfg.stop_rule(QUICK_CYCLES);
    // One island samples storage use for both. What it sees depends on how
    // far the other has come, so a fixed-size run, whose counts must
    // repeat exactly, samples once at the end instead.
    let sampler = if cfg.quick() { ISLANDS } else { 0 };
    std::thread::scope(|scope| {
        for (i, island) in st.islands.iter_mut().enumerate() {
            scope.spawn(move || {
                island.ctx.start_measuring();
                let start = Instant::now();
                while !stop.done(island.ctx.rec.cycles) {
                    island.cycle(dep, live_bytes, i == sampler);
                }
                island.ctx.rec.finish(start.elapsed());
                island.ctx.measuring = false;
            });
        }
    });
    readouts.after = merged_stats(dep);
    let mut ctxs: Vec<Ctx> = st.islands.into_iter().map(|i| i.ctx).collect();
    ctxs[0]
        .rec
        .add_space_sample(stored_bytes(dep), live_bytes.load(Ordering::Relaxed));
    let answers: u64 = ctxs.iter().map(|c| c.rec.answers).sum();
    readouts.provider_queries = answers * dep.provider_ids().len() as u64;
    audit(dep, &mut ctxs[0], &mut readouts);
    outcome(ctxs, setup_s, readouts)
}
