//! `bulk_checkpoint`: continual checkpointing of one large model.
//!
//! Every generation retrains the last 4 of 16 layers of a 32 MiB model
//! (8 MiB written, 24 MiB inherited) and is then loaded back in full
//! through its owner map. A sliding window of 8 generations stays live,
//! older ones are retired, and a fresh 32 MiB lineage starts every 20
//! generations. Serialisation, the memory pool, bulk transfers and
//! reference counts do nearly all the work; catalog, index and codec do
//! almost none — an optimisation of those must leave this workload's
//! numbers where they are.

use std::collections::VecDeque;
use std::time::Instant;

use evostore_core::{Deployment, EvoStoreClient, OwnerMap};
use evostore_graph::{flatten, layered_model, Architecture, CompactGraph};
use evostore_tensor::{ModelId, TensorKey};

use super::{
    audit, freeze_prefix, memory_deployment, memory_probes, merged_stats, outcome, repeat_setup,
    replay_loaded, retire,
};
use crate::gen::{owned_tensors, SplitMix64};
use crate::harness::{stored_bytes, tensor_bytes, Ctx, RunCfg};
use crate::metrics::{Outcome, Readouts};
use crate::probe::StoreInputs;
use crate::trace::Class;

const MODEL_BYTES: usize = 32 << 20;
const LAYERS: usize = 16;
const RETRAINED: usize = 4;
const WINDOW: usize = 8;
const LINEAGE_PERIOD: u64 = 20;
const QUICK_CYCLES: u64 = 12;

struct State {
    dep: Deployment,
    client: EvoStoreClient,
    ctx: Ctx,
    arch: Architecture,
    graph: CompactGraph,
    rng: SplitMix64,
    /// Live generations, oldest first, with the keys they reference.
    live: VecDeque<(ModelId, Vec<TensorKey>)>,
    generation: u64,
}

fn setup(cfg: &RunCfg) -> State {
    let dep = memory_deployment();
    let client = dep.client();
    let probes = memory_probes(cfg, &dep);
    let arch = layered_model(cfg.scaled(MODEL_BYTES, MODEL_BYTES / 16), LAYERS);
    let graph = flatten(&arch).expect("layered model flattens");
    let mut st = State {
        dep,
        client,
        ctx: Ctx::new(cfg, Instant::now(), 0, probes),
        arch,
        graph,
        rng: SplitMix64::new(cfg.seed),
        live: VecDeque::new(),
        generation: 0,
    };
    // Warm-up: the first lineage fills the window.
    for _ in 0..WINDOW {
        cycle(&mut st);
    }
    st
}

/// One generation: find the previous one, store the retrained layers,
/// load the result back, retire what left the window.
fn cycle(st: &mut State) {
    let State {
        dep,
        client,
        ctx,
        arch,
        graph,
        rng,
        live,
        generation,
    } = st;
    let id = ModelId(*generation + 1);
    let quality = 0.5 + *generation as f64 * 1e-6;
    let fresh = *generation % LINEAGE_PERIOD == 0;
    *generation += 1;

    let mut derived = None;
    if !fresh {
        let prev = live.back().expect("a lineage is running").0;
        let Some(found) = ctx.timed(Class::Query, client, |c| c.query_best_ancestor(graph)) else {
            return;
        };
        ctx.end_query_round(1);
        ctx.replay(found.op, |p, t, op| {
            p.replay_query(t, op, graph, Some(arch), found.rpc_calls)
        });
        // Quality rises with every generation, so the best full match is
        // the newest checkpoint.
        let best = found.value.into_inner();
        let verdict = match &best {
            Some(b) if b.model == prev => Ok(()),
            other => Err(format!(
                "best ancestor {:?}, expected {prev}",
                other.as_ref().map(|b| b.model)
            )),
        };
        ctx.verify(verdict);
        let Some(meta) = ctx.timed(Class::GetMeta, client, |c| c.get_meta(prev)) else {
            return;
        };
        if let Some(best) = best {
            derived = Some((
                prev,
                freeze_prefix(&best.lcp, graph.len() - RETRAINED),
                meta.value,
            ));
        }
    }

    let (map, tensors) = ctx.loadgen(|ctx| {
        let map = match &derived {
            Some((_, lcp, meta)) => OwnerMap::derive(id, graph, lcp, &meta.owner_map),
            None => OwnerMap::fresh(id, graph),
        };
        let tensors = owned_tensors(graph, &map, rng);
        ctx.expect(&tensors);
        (map, tensors)
    });
    let parent = derived.as_ref().map(|d| d.0);
    let written = tensor_bytes(&tensors);
    let Some(stored) = ctx.timed(Class::Store, client, |c| {
        c.store_model(graph.clone(), map.clone(), parent, quality, &tensors)
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
                graph,
                map: &map,
                parent,
                quality,
                tensors: &tensors,
                bases: None,
                derived_from: derived
                    .as_ref()
                    .map(|(_, lcp, meta)| (lcp, &meta.owner_map)),
                rpc_calls: stored.rpc_calls,
            },
        )
    });
    if let Some(p) = ctx.probes.as_mut() {
        p.catalog_insert(&mut ctx.tracer, stored.op, id, graph, quality);
    }
    drop(tensors);

    if let Some(loaded) = ctx.timed(Class::Load, client, |c| c.load_model(id)) {
        let model = &loaded.value;
        let read = tensor_bytes(&model.tensors);
        ctx.moved(Class::Load, read, loaded.elapsed);
        ctx.note(b'l', id.0, read);
        let want = map.all_tensor_keys().len();
        ctx.loadgen(|ctx| {
            let verdict = ctx.oracle.check(&model.tensors, Some(want));
            ctx.verify(verdict.map_err(|e| format!("load of {id}: {e}")));
        });
        replay_loaded(ctx, &loaded, None);
    }

    live.push_back((id, map.all_tensor_keys()));
    if live.len() > WINDOW {
        let (old, keys) = live.pop_front().expect("window is not empty");
        retire(ctx, client, old, &keys);
    }
    ctx.sample_space(
        stored_bytes(dep),
        (live.len() * graph.total_param_bytes()) as u64,
    );
    ctx.tally(|r| r.cycles += 1);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (mut st, setup_s) = repeat_setup(cfg, || setup(cfg));
    let mut readouts = Readouts {
        before: merged_stats(&st.dep),
        ..Default::default()
    };
    st.ctx.start_measuring();
    let stop = cfg.stop_rule(QUICK_CYCLES);
    let start = Instant::now();
    while !stop.done(st.ctx.rec.cycles) {
        cycle(&mut st);
    }
    st.ctx.rec.finish(start.elapsed());
    st.ctx.measuring = false;

    readouts.after = merged_stats(&st.dep);
    readouts.provider_queries = st.ctx.rec.answers * st.dep.provider_ids().len() as u64;
    audit(&st.dep, &mut st.ctx, &mut readouts);
    outcome(vec![st.ctx], setup_s, readouts)
}
