//! `catalog_churn`: metadata traffic over a large catalog of tiny models.
//!
//! Set-up stores 3000 models — 100 mutation families of 30, from an
//! attention-style space with tiny widths, so graphs have a couple of
//! dozen leaf layers but only kilobytes of tensors. A query thread then
//! runs rounds of 32 single `query_best_ancestor`, one 32-graph
//! `query_best_ancestors` and one `find_matching`, over 4096 distinct
//! probes (half mutations of members, a quarter exact members, a quarter
//! random). A writer thread works beside it in a closed loop: store a
//! tiny model derived from a stored member (`get_meta`, `OwnerMap::derive`,
//! `store_model`), load one back, retire the oldest of a window of 48.
//! The catalog index, snapshots, the control-plane codec and fabric round
//! trips dominate; tensors and kv are nearly idle. Reads and writes share
//! one catalog, so a reader gain paid for by the writer (or the reverse)
//! shows up in `cycles_per_s` (the writer's rate) against `queries_per_s`.

use std::collections::VecDeque;
use std::time::Instant;

use evostore_core::{Deployment, EvoStoreClient, OwnerMap};
use evostore_graph::{
    flatten, lcp, ArchPattern, CompactGraph, Genome, GenomeSpace, LayerPattern, LcpResult,
};
use evostore_tensor::{ModelId, TensorData, TensorKey, VertexId};

use super::{
    audit, memory_deployment, memory_probes, merged_stats, outcome, repeat_setup, replay_loaded,
    retire,
};
use crate::gen::{fill_tensor, owned_tensors, SplitMix64};
use crate::harness::{stored_bytes, tensor_bytes, Ctx, RunCfg};
use crate::metrics::{Outcome, Readouts};
use crate::probe::StoreInputs;
use crate::trace::Class;

const FAMILIES: usize = 100;
const QUICK_FAMILIES: usize = 5;
const FAMILY_SIZE: usize = 30;
const PROBES: usize = 4096;
const QUICK_PROBES: usize = 256;
const ROUND: usize = 32;
const WINDOW: usize = 48;
const POOL: usize = 256;
const QUICK_ROUNDS: u64 = 30;
const QUICK_WRITER_CYCLES: u64 = 200;
/// Bytes of a writer model and of the part it owns itself.
const MODEL_BYTES: std::ops::RangeInclusive<usize> = 16_000..=28_000;
const WRITTEN_BYTES: std::ops::RangeInclusive<usize> = 7_000..=10_000;
/// Every how many writer cycles storage use is sampled (`stats()` walks
/// the whole catalog).
const SPACE_EVERY: u64 = 16;

/// The attention-style space shrunk to one tiny width: graphs keep their
/// couple of dozen leaf layers, tensors shrink to kilobytes, and — so the
/// numbers do not depend on which seed was drawn — models differ in
/// structure rather than in size.
fn space() -> GenomeSpace {
    GenomeSpace {
        input_dim: 16,
        widths: vec![16],
        attn_dims: vec![16],
        attn_heads: vec![2, 4],
        min_cells: 10,
        max_cells: 10,
        ..GenomeSpace::attn_like()
    }
}

struct Probe {
    genome: Genome,
    graph: CompactGraph,
    /// The probe is a stored member: the answer must match it in full.
    exact: bool,
}

/// A derived model the writer can store again and again under fresh ids.
struct Template {
    graph: CompactGraph,
    parent: ModelId,
    lcp: LcpResult,
    /// `(vertex, slot, tensor)` of the vertices outside the prefix.
    tensors: Vec<(VertexId, u32, TensorData)>,
    bytes: u64,
}

struct Reader {
    client: EvoStoreClient,
    ctx: Ctx,
    probes: Vec<Probe>,
    pattern: ArchPattern,
    /// Stored members the pattern matches; the writer only ever adds to it.
    pattern_floor: usize,
    next_probe: usize,
}

struct Writer {
    client: EvoStoreClient,
    ctx: Ctx,
    rng: SplitMix64,
    pool: Vec<Template>,
    window: VecDeque<(ModelId, Vec<TensorKey>, u64)>,
    next_id: u64,
    static_bytes: u64,
    window_bytes: u64,
}

struct State {
    dep: Deployment,
    reader: Reader,
    writer: Writer,
}

fn setup(cfg: &RunCfg) -> State {
    let dep = memory_deployment();
    let epoch = Instant::now();
    let space = space();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut reader_ctx = Ctx::new(cfg, epoch, 0, memory_probes(cfg, &dep));
    let mut writer_ctx = Ctx::new(cfg, epoch, 1, memory_probes(cfg, &dep));
    let writer_client = dep.client();

    // Population: each family is a chain of mutations of its root.
    let mut members: Vec<(ModelId, Genome, CompactGraph)> = Vec::new();
    let mut static_bytes = 0;
    for _ in 0..cfg.scaled(FAMILIES, QUICK_FAMILIES) {
        let mut genome = space.sample(&mut rng);
        for _ in 0..FAMILY_SIZE {
            let id = ModelId(members.len() as u64 + 1);
            let graph = flatten(&space.materialize(&genome)).expect("genome materializes");
            let map = OwnerMap::fresh(id, &graph);
            let tensors = owned_tensors(&graph, &map, &mut rng);
            static_bytes += tensor_bytes(&tensors);
            let quality = rng.unit();
            writer_ctx.timed(Class::Store, &writer_client, |c| {
                c.store_model(graph.clone(), map, None, quality, &tensors)
            });
            for ctx in [&mut reader_ctx, &mut writer_ctx] {
                if let Some(p) = ctx.probes.as_mut() {
                    p.catalog_insert(&mut ctx.tracer, None, id, &graph, quality);
                }
            }
            let next = space.mutate(&genome, &mut rng);
            members.push((id, std::mem::replace(&mut genome, next), graph));
        }
    }

    let probes = (0..cfg.scaled(PROBES, QUICK_PROBES))
        .map(|i| {
            let member = &members[rng.below(members.len())];
            let (genome, exact) = match i % 4 {
                0 | 1 => (space.mutate(&member.1, &mut rng), false),
                2 => (member.1.clone(), true),
                _ => (space.sample(&mut rng), false),
            };
            let graph = flatten(&space.materialize(&genome)).expect("genome materializes");
            Probe {
                genome,
                graph,
                exact,
            }
        })
        .collect();
    let pattern = ArchPattern::any().with_layer(LayerPattern::Kind("attention".into()));
    let pattern_floor = members.iter().filter(|m| pattern.matches(&m.2)).count();

    let pool = (0..POOL)
        .map(|_| loop {
            let (parent, genome, parent_graph) = &members[rng.below(members.len())];
            let graph =
                flatten(&space.materialize(&space.mutate(genome, &mut rng))).expect("materializes");
            let lcp = lcp(&graph, parent_graph);
            // Keep the bytes a store writes and a load returns in a band
            // (about the middle half of what the space produces), so that
            // `store_mb_per_s` and `load_mb_per_s` do not depend on which
            // seed was drawn.
            let total = graph.total_param_bytes();
            let written = total - graph.param_bytes_of(&lcp.prefix);
            if !WRITTEN_BYTES.contains(&written) || !MODEL_BYTES.contains(&total) {
                continue;
            }
            let tensors: Vec<_> = graph
                .vertex_ids()
                .filter(|v| lcp.match_in_ancestor[v.0 as usize].is_none())
                .flat_map(|v| {
                    graph
                        .param_specs(v)
                        .into_iter()
                        .map(|spec| (v, spec.slot, fill_tensor(&spec, &mut rng)))
                        .collect::<Vec<_>>()
                })
                .collect();
            break Template {
                bytes: graph.total_param_bytes() as u64,
                parent: *parent,
                lcp,
                tensors,
                graph,
            };
        })
        .collect();

    let mut st = State {
        reader: Reader {
            client: dep.client(),
            ctx: reader_ctx,
            probes,
            pattern,
            pattern_floor,
            next_probe: 0,
        },
        writer: Writer {
            client: writer_client,
            ctx: writer_ctx,
            rng: rng.fork(1),
            pool,
            window: VecDeque::new(),
            next_id: members.len() as u64 + 1,
            static_bytes,
            window_bytes: 0,
        },
        dep,
    };
    // Warm-up: fill the writer's window, run the LCP memo warm.
    for _ in 0..WINDOW {
        st.writer.cycle(&st.dep);
    }
    for _ in 0..2 {
        st.reader.round();
    }
    st
}

impl Reader {
    /// 32 single queries, one batch of 32, one pattern query.
    fn round(&mut self) {
        let space = space();
        let Reader {
            client,
            ctx,
            probes,
            pattern,
            pattern_floor,
            next_probe,
        } = self;
        let count = probes.len();
        let mut take = |n: usize| {
            let start = *next_probe;
            *next_probe = (start + n) % count;
            (0..n).map(move |i| (start + i) % count)
        };
        for i in take(ROUND) {
            let probe = &probes[i];
            let Some(found) = ctx.timed(Class::Query, client, |c| {
                c.query_best_ancestor(&probe.graph)
            }) else {
                continue;
            };
            let best = found.value.into_inner();
            // The answer may name a model the writer stored a moment ago,
            // so only the question goes into the digest.
            ctx.note(b'q', i as u64, 0);
            ctx.verify(check_answer(probe, best.as_ref().map(|b| &b.lcp)));
            ctx.replay(found.op, |p, t, op| {
                let arch = space.materialize(&probe.genome);
                p.replay_query(t, op, &probe.graph, Some(&arch), found.rpc_calls)
            });
        }

        let batch: Vec<usize> = take(ROUND).collect();
        let graphs: Vec<CompactGraph> = batch.iter().map(|&i| probes[i].graph.clone()).collect();
        if let Some(found) = ctx.timed(Class::QueryBatch, client, |c| {
            c.query_best_ancestors(&graphs)
        }) {
            ctx.tally(|r| r.batch_graphs += graphs.len() as u64);
            let answers = found.value.into_inner();
            let verdict = if answers.len() != graphs.len() {
                Err(format!(
                    "{} answers for {} graphs",
                    answers.len(),
                    graphs.len()
                ))
            } else {
                batch
                    .iter()
                    .zip(&answers)
                    .try_for_each(|(&i, a)| check_answer(&probes[i], a.as_ref().map(|b| &b.lcp)))
            };
            ctx.verify(verdict);
            ctx.replay(found.op, |p, t, op| {
                p.replay_query_batch(t, op, &graphs, found.rpc_calls)
            });
        }

        if let Some(found) = ctx.timed(Class::Pattern, client, |c| c.find_matching(pattern)) {
            let matches = found.value.into_inner();
            let verdict = if matches.len() >= *pattern_floor {
                Ok(())
            } else {
                Err(format!(
                    "pattern matched {} models, {pattern_floor} stored members match",
                    matches.len()
                ))
            };
            ctx.verify(verdict);
            ctx.replay(found.op, |p, t, op| {
                p.replay_pattern(t, op, pattern, found.rpc_calls)
            });
        }
        ctx.end_query_round(2 * ROUND as u64 + 1);
    }
}

/// Every probe shares at least the input layer with every stored member,
/// and a probe that *is* a member must be matched in full.
fn check_answer(probe: &Probe, lcp: Option<&LcpResult>) -> Result<(), String> {
    match lcp {
        None => Err("no ancestor although every member shares the input layer".into()),
        Some(l) if l.match_in_ancestor.len() != probe.graph.len() => {
            Err("LCP does not belong to the queried graph".into())
        }
        Some(l) if probe.exact && l.len() != probe.graph.len() => Err(format!(
            "stored member matched on {} of {} vertices",
            l.len(),
            probe.graph.len()
        )),
        Some(_) => Ok(()),
    }
}

impl Writer {
    /// Store a derived model, load a window member back, retire the
    /// oldest.
    fn cycle(&mut self, dep: &Deployment) {
        let Writer {
            client,
            ctx,
            rng,
            pool,
            window,
            next_id,
            static_bytes,
            window_bytes,
        } = self;
        let template = &pool[rng.below(pool.len())];
        let id = ModelId(*next_id);
        *next_id += 1;
        let quality = rng.unit();
        let Some(meta) = ctx.timed(Class::GetMeta, client, |c| c.get_meta(template.parent)) else {
            return;
        };
        let parent_map = meta.value.owner_map;
        let (map, tensors) = ctx.loadgen(|ctx| {
            let map = OwnerMap::derive(id, &template.graph, &template.lcp, &parent_map);
            let tensors = template
                .tensors
                .iter()
                .map(|(v, slot, t)| (TensorKey::new(id, *v, *slot), t.clone()))
                .collect();
            ctx.expect(&tensors);
            (map, tensors)
        });
        let written = tensor_bytes(&tensors);
        let Some(stored) = ctx.timed(Class::Store, client, |c| {
            c.store_model(
                template.graph.clone(),
                map.clone(),
                Some(template.parent),
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
                    graph: &template.graph,
                    map: &map,
                    parent: Some(template.parent),
                    quality,
                    tensors: &tensors,
                    bases: None,
                    derived_from: Some((&template.lcp, &parent_map)),
                    rpc_calls: stored.rpc_calls,
                },
            )
        });
        if let Some(p) = ctx.probes.as_mut() {
            p.catalog_insert(&mut ctx.tracer, stored.op, id, &template.graph, quality);
        }
        window.push_back((id, map.all_tensor_keys(), template.bytes));
        *window_bytes += template.bytes;

        // Models derived by this writer inherit static members' tensors,
        // which the oracle never saw; it checks the writer's own.
        let (pick, _, _) = window[rng.below(window.len())];
        if let Some(loaded) = ctx.timed(Class::Load, client, |c| c.load_model(pick)) {
            let model = &loaded.value;
            let read = tensor_bytes(&model.tensors);
            ctx.moved(Class::Load, read, loaded.elapsed);
            ctx.note(b'l', pick.0, read);
            ctx.loadgen(|ctx| {
                let own = model
                    .tensors
                    .iter()
                    .filter(|(k, _)| k.owner == pick)
                    .map(|(k, t)| (*k, t.clone()))
                    .collect();
                let want = model.owner_map.all_tensor_keys().len();
                let verdict = if model.tensors.len() == want {
                    ctx.oracle.check(&own, None)
                } else {
                    Err(format!(
                        "{} of {want} tensors returned",
                        model.tensors.len()
                    ))
                };
                ctx.verify(verdict.map_err(|e| format!("load of {pick}: {e}")));
            });
            replay_loaded(ctx, &loaded, None);
        }

        if window.len() > WINDOW {
            let (old, keys, bytes) = window.pop_front().expect("window is not empty");
            *window_bytes -= bytes;
            retire(ctx, client, old, &keys);
        }
        if ctx.rec.cycles % SPACE_EVERY == 0 {
            ctx.sample_space(stored_bytes(dep), *static_bytes + *window_bytes);
        }
        ctx.tally(|r| r.cycles += 1);
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (mut st, setup_s) = repeat_setup(cfg, || setup(cfg));
    let mut readouts = Readouts {
        before: merged_stats(&st.dep),
        ..Default::default()
    };
    let dep = &st.dep;
    let (reader, writer) = (&mut st.reader, &mut st.writer);
    let reader_stop = cfg.stop_rule(QUICK_ROUNDS);
    let writer_stop = cfg.stop_rule(QUICK_WRITER_CYCLES);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            reader.ctx.start_measuring();
            let start = Instant::now();
            // `cycles_per_s` is the writer's rate; rounds are not cycles.
            let mut rounds = 0;
            while !reader_stop.done(rounds) {
                reader.round();
                rounds += 1;
            }
            reader.ctx.rec.finish(start.elapsed());
            reader.ctx.measuring = false;
        });
        scope.spawn(move || {
            writer.ctx.start_measuring();
            let start = Instant::now();
            while !writer_stop.done(writer.ctx.rec.cycles) {
                writer.cycle(dep);
            }
            writer.ctx.rec.finish(start.elapsed());
            writer.ctx.measuring = false;
        });
    });
    readouts.after = merged_stats(dep);
    readouts.provider_queries = st.reader.ctx.rec.answers * dep.provider_ids().len() as u64;
    audit(dep, &mut st.writer.ctx, &mut readouts);
    outcome(vec![st.reader.ctx, st.writer.ctx], setup_s, readouts)
}
