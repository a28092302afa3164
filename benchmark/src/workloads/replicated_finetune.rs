//! `replicated_finetune`: fine-tune lineages on the replicated,
//! log-structured, chunked-and-delta substrate — then an outage, repair
//! and a restart.
//!
//! Three providers keep two replicas of every model in an append-only log
//! store under a temp dir, with content-addressed chunks and parent-delta
//! records. 12 users upload an 8 MiB / 8-layer checkpoint (even users the
//! *same* bytes, so their chunks dedup; odd users distinct bytes). The
//! measured phase fine-tunes user after user: find the user's newest
//! generation, retrain the last 2 layers sparsely (2 % of the words, so
//! the provider stores deltas), load the result back at depth, and retire
//! what left the user's window of 3 generations. A watcher follows user
//! 0's lineage and has to apply every release exactly once.
//!
//! After the clock stops, provider 2 goes down: 24 fresh uploads land on
//! chain [1, 2] (their mirror is down, so they stay under-replicated;
//! every fourth repeats the even users' bytes, which repair need not move)
//! while users whose chain is [0, 1] keep fine-tuning — a store that would
//! have to pin an inherited tensor on the down replica fails by design and
//! is never issued. Then the provider comes back; `repair()` and
//! `reopen()` are timed, the audit must pass after each, and every live
//! model must read back byte-identical from the reopened logs.
//!
//! The other three workloads bypass all of this: content hashing, chunking,
//! delta encode/decode, the log store, replication debt, the transfer and
//! delivery planes.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use evostore_core::messages::ModelMetaReply;
use evostore_core::{
    CachingClient, Deployment, DeploymentConfig, EvoStoreClient, ModelWatcher, OwnerMap,
    WatchConfig,
};
use evostore_deliver::{EventKind, SubscriptionFilter};
use evostore_graph::{
    flatten, lcp, Activation, Architecture, CompactGraph, LayerConfig, LayerKind,
};
use evostore_rpc::FaultPlan;
use evostore_tensor::{ModelId, TensorData, TensorKey};

use super::{
    audit, freeze_prefix, log_deployment_config, merged_stats, outcome, repeat_setup,
    replay_loaded, retire,
};
use crate::gen::{finetune, owned_tensors, SplitMix64};
use crate::harness::{stored_bytes, tensor_bytes, Ctx, RunCfg, TempDir};
use crate::metrics::{Outcome, Readouts};
use crate::probe::{Bases, PathSet, Probes, StoreInputs};
use crate::trace::Class;

const PROVIDERS: usize = 3;
const USERS: usize = 12;
const QUICK_USERS: usize = 3;
const LAYERS: usize = 8;
const RETRAINED: usize = 2;
/// Dense width: 512 x 512 f32 weights are 1 MiB a layer.
const WIDTH: u32 = 512;
const QUICK_WIDTH: u32 = 128;
const WINDOW: usize = 3;
const OUTAGE_UPLOADS: usize = 24;
const QUICK_OUTAGE_UPLOADS: usize = 2;
const QUICK_CYCLES: u64 = 12;
const WATCH_WAIT: Duration = Duration::from_secs(20);

struct User {
    graph: CompactGraph,
    arch: Architecture,
    primary: usize,
    base: ModelId,
    /// Live fine-tuned generations, oldest first.
    live: VecDeque<(ModelId, Vec<TensorKey>)>,
    /// Current tensors of the retrained layers, by `(vertex, slot)`.
    head: Bases,
    quality: f64,
}

impl User {
    fn newest(&self) -> ModelId {
        self.live.back().map_or(self.base, |g| g.0)
    }
}

struct State {
    dir: TempDir,
    config: DeploymentConfig,
    dep: Deployment,
    client: EvoStoreClient,
    watcher: ModelWatcher,
    ctx: Ctx,
    rng: SplitMix64,
    users: Vec<User>,
    /// The bytes every even user uploaded, keyed under model 0.
    shared: HashMap<TensorKey, TensorData>,
    /// The next unused model id whose primary is each provider.
    next_id: [u64; PROVIDERS],
    /// Models stored during the outage (never part of a user's window).
    uploads: Vec<ModelId>,
    /// Stores and retires of user 0's lineage: what the watcher must see.
    releases: u64,
    retirements: u64,
    next_user: usize,
}

/// 8 dense layers and a parameter-free tail that differs per owner, so
/// only the owner's own lineage matches a query in full.
fn architecture(width: u32, tag: u32) -> Architecture {
    let mut a = Architecture::new(format!("finetune-{tag}"));
    let mut prev = a.add_layer(LayerConfig::new(
        "input",
        LayerKind::Input { shape: vec![width] },
    ));
    for i in 0..LAYERS {
        prev = a.chain(
            prev,
            LayerConfig::new(
                format!("dense_{i}"),
                LayerKind::Dense {
                    in_features: width,
                    units: width,
                    activation: Activation::ReLU,
                },
            ),
        );
    }
    a.chain(
        prev,
        LayerConfig::new("tail", LayerKind::Dropout { rate_milli: tag }),
    );
    a
}

/// A fresh model id placed on `primary` (lineages stay on one chain, so
/// delta bases are always co-located with their children).
fn id_on(next_id: &mut [u64; PROVIDERS], primary: usize) -> ModelId {
    loop {
        let id = ModelId(next_id[primary]);
        next_id[primary] += 1;
        if id.provider_for(PROVIDERS) == primary {
            return id;
        }
    }
}

/// The same tensors under another owner.
fn rekeyed(
    tensors: &HashMap<TensorKey, TensorData>,
    owner: ModelId,
) -> HashMap<TensorKey, TensorData> {
    tensors
        .iter()
        .map(|(k, t)| (TensorKey::new(owner, k.vertex, k.slot), t.clone()))
        .collect()
}

fn by_slot(tensors: &HashMap<TensorKey, TensorData>, from: usize) -> Bases {
    tensors
        .iter()
        .filter(|(k, _)| k.vertex.0 as usize >= from)
        .map(|(k, t)| ((k.vertex.0, k.slot), t.clone()))
        .collect()
}

fn setup(cfg: &RunCfg) -> State {
    let dir = TempDir::create(cfg, "logs");
    let config = log_deployment_config(dir.path());
    let dep = Deployment::new(config.clone());
    let client = dep.client();
    let probes = cfg.trace.then(|| {
        Probes::new(
            cfg,
            PathSet {
                memory: false,
                chunked_delta: true,
                providers: PROVIDERS,
                replication: config.replication,
            },
        )
    });
    let mut ctx = Ctx::new(cfg, Instant::now(), 0, probes);
    let mut rng = SplitMix64::new(cfg.seed);
    let width = cfg.scaled(WIDTH as usize, QUICK_WIDTH as usize) as u32;
    let mut next_id = [1; PROVIDERS];

    // Even users upload the same bytes, re-keyed to their own model id.
    let shared_graph = flatten(&architecture(width, 0)).expect("architecture flattens");
    let shared = owned_tensors(
        &shared_graph,
        &OwnerMap::fresh(ModelId(0), &shared_graph),
        &mut rng,
    );
    let retrained_from = shared_graph.len() - 1 - RETRAINED;

    let mut users = Vec::new();
    for u in 0..cfg.scaled(USERS, QUICK_USERS) {
        let primary = u % PROVIDERS;
        let arch = architecture(width, u as u32);
        let graph = flatten(&arch).expect("architecture flattens");
        let base = id_on(&mut next_id, primary);
        let map = OwnerMap::fresh(base, &graph);
        let tensors = if u % 2 == 0 {
            rekeyed(&shared, base)
        } else {
            owned_tensors(&graph, &map, &mut rng)
        };
        ctx.expect(&tensors);
        let quality = 0.5;
        ctx.timed(Class::Store, &client, |c| {
            c.store_model(graph.clone(), map, None, quality, &tensors)
        });
        ctx.note(b'u', base.0, tensor_bytes(&tensors));
        if let Some(p) = ctx.probes.as_mut() {
            p.catalog_insert(&mut ctx.tracer, None, base, &graph, quality);
        }
        users.push(User {
            head: by_slot(&tensors, retrained_from),
            graph,
            arch,
            primary,
            base,
            live: VecDeque::new(),
            quality,
        });
    }

    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        // By architecture, not by lineage: a `DescendantOf` walk up the
        // parent chain ends at the first retired generation, so it stops
        // matching once the window has moved past generation 1.
        SubscriptionFilter::ArchPrefix(users[0].graph.clone()),
        WatchConfig::default(),
        Some(dep.obs()),
    )
    .expect("watcher subscribes to every provider");

    let mut st = State {
        dir,
        config,
        dep,
        client,
        watcher,
        ctx,
        rng,
        users,
        shared,
        next_id,
        uploads: Vec::new(),
        releases: 0,
        retirements: 0,
        next_user: 0,
    };
    // Warm-up: one generation per user.
    for _ in 0..st.users.len() {
        st.cycle(true);
    }
    st
}

impl State {
    /// Fine-tune the next user's newest generation. `healthy` is false
    /// during the outage: no query broadcast, no retire (its decrements
    /// would park on the down replica).
    fn cycle(&mut self, healthy: bool) {
        let State {
            dep,
            client,
            ctx,
            rng,
            users,
            next_id,
            releases,
            retirements,
            next_user,
            ..
        } = self;
        let u = *next_user;
        *next_user = (u + 1) % users.len();
        let user = &mut users[u];
        if !healthy && user.primary != 0 {
            return;
        }
        let prev = user.newest();
        let graph = &user.graph;

        if healthy {
            let Some(found) = ctx.timed(Class::Query, client, |c| c.query_best_ancestor(graph))
            else {
                return;
            };
            ctx.end_query_round(1);
            // Only the user's own lineage matches the tail vertex, and
            // quality rises with every generation.
            let best = found.value.into_inner().map(|b| b.model);
            ctx.verify(if best == Some(prev) {
                Ok(())
            } else {
                Err(format!("user {u}: best ancestor {best:?}, expected {prev}"))
            });
            ctx.replay(found.op, |p, t, op| {
                p.replay_query(t, op, graph, Some(&user.arch), found.rpc_calls)
            });
        }
        let Some(meta) = ctx.timed(Class::GetMeta, client, |c| c.get_meta(prev)) else {
            return;
        };
        let meta: ModelMetaReply = meta.value;

        let id = id_on(next_id, user.primary);
        user.quality += 1e-6;
        let quality = user.quality;
        let frozen = freeze_prefix(&lcp(graph, &meta.graph), graph.len() - 1 - RETRAINED);
        let (map, tensors) = ctx.loadgen(|ctx| {
            let map = OwnerMap::derive(id, graph, &frozen, &meta.owner_map);
            let tensors: HashMap<TensorKey, TensorData> = user
                .head
                .iter()
                .map(|(&(v, slot), t)| {
                    (
                        TensorKey::new(id, evostore_tensor::VertexId(v), slot),
                        finetune(t, rng),
                    )
                })
                .collect();
            ctx.expect(&tensors);
            (map, tensors)
        });
        let written = tensor_bytes(&tensors);
        let Some(stored) = ctx.timed(Class::Store, client, |c| {
            c.store_model(graph.clone(), map.clone(), Some(prev), quality, &tensors)
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
                    parent: Some(prev),
                    quality,
                    tensors: &tensors,
                    bases: Some(&user.head),
                    derived_from: Some((&frozen, &meta.owner_map)),
                    rpc_calls: stored.rpc_calls,
                },
            )
        });
        if let Some(p) = ctx.probes.as_mut() {
            p.catalog_insert(&mut ctx.tracer, stored.op, id, graph, quality);
        }
        if u == 0 {
            *releases += 1;
        }

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
            replay_loaded(ctx, &loaded, Some(&user.head));
        }
        user.head = by_slot(&tensors, 0);
        user.live.push_back((id, map.all_tensor_keys()));

        if healthy && user.live.len() > WINDOW {
            let (old, keys) = user.live.pop_front().expect("window is not empty");
            if retire(ctx, client, old, &keys) && u == 0 {
                *retirements += 1;
            }
        }
        let live: usize = users.iter().map(|u| 1 + u.live.len()).sum();
        ctx.sample_space(
            stored_bytes(dep),
            (live * users[0].graph.total_param_bytes()) as u64,
        );
        ctx.tally(|r| r.cycles += 1);
    }

    /// Provider 2 is down: fresh uploads onto chain [1, 2], fine-tunes on
    /// chain [0, 1].
    fn outage(&mut self, cfg: &RunCfg) {
        let plan = self
            .dep
            .fabric()
            .install_fault_plan(FaultPlan::new(cfg.seed));
        let down = self.dep.provider_ids()[2];
        plan.set_down(down);
        let width = cfg.scaled(WIDTH as usize, QUICK_WIDTH as usize) as u32;
        for i in 0..cfg.scaled(OUTAGE_UPLOADS, QUICK_OUTAGE_UPLOADS) {
            let graph =
                flatten(&architecture(width, 1000 + i as u32)).expect("architecture flattens");
            let id = id_on(&mut self.next_id, 1);
            let map = OwnerMap::fresh(id, &graph);
            let tensors = if i % 4 == 0 {
                rekeyed(&self.shared, id)
            } else {
                owned_tensors(&graph, &map, &mut self.rng)
            };
            self.ctx.expect(&tensors);
            let stored = self.ctx.timed(Class::Store, &self.client, |c| {
                c.store_model(graph, map, None, 0.5, &tensors)
            });
            if stored.is_some() {
                self.ctx.note(b'o', id.0, tensor_bytes(&tensors));
                self.uploads.push(id);
            }
        }
        for _ in 0..self.users.len() {
            self.cycle(false);
        }
        plan.set_up(down);
        self.dep.fabric().clear_fault_plan();
    }

    /// Every store and retire of user 0's lineage must have reached the
    /// watcher exactly once from each of the lineage's two replicas (each
    /// replica publishes its own catalog's changes).
    fn check_watcher(&mut self, readouts: &mut Readouts) {
        let replicas = self.config.replication.factor as u64;
        let (releases, retirements) = (self.releases * replicas, self.retirements * replicas);
        let watcher = &self.watcher;
        watcher.wait_until(WATCH_WAIT, || {
            watcher.stats().events_applied >= releases + retirements
        });
        let applied = watcher.applied();
        let count = |kind: EventKind| applied.iter().filter(|e| e.kind == kind).count() as u64;
        let mut seen = std::collections::HashSet::new();
        let duplicate = applied
            .iter()
            .find(|e| !seen.insert((e.provider, e.model, e.kind == EventKind::Stored)));
        let verdict = if let Some(d) = duplicate {
            Err(format!(
                "watcher applied {} from provider {} twice",
                d.model, d.provider
            ))
        } else if count(EventKind::Stored) != releases || count(EventKind::Retired) != retirements {
            Err(format!(
                "watcher applied {} stores and {} retires, {releases} and {retirements} were published",
                count(EventKind::Stored),
                count(EventKind::Retired)
            ))
        } else {
            Ok(())
        };
        self.ctx.verify(verdict);
        for e in watcher.take_errors() {
            self.ctx.fail(format!("watcher: {e}"));
        }
        readouts.watch = Some(watcher.stats());
        readouts.watch_releases = self.releases;
    }

    fn live_models(&self) -> Vec<ModelId> {
        self.users
            .iter()
            .flat_map(|u| std::iter::once(u.base).chain(u.live.iter().map(|g| g.0)))
            .chain(self.uploads.iter().copied())
            .collect()
    }
}

/// Load `model` and compare every tensor with what was stored.
fn verify_model(ctx: &mut Ctx, client: &EvoStoreClient, model: ModelId) {
    if let Some(loaded) = ctx.timed(Class::Load, client, |c| c.load_model(model)) {
        let m = loaded.value;
        let want = m.owner_map.all_tensor_keys().len();
        let verdict = ctx.oracle.check(&m.tensors, Some(want));
        ctx.verify(verdict.map_err(|e| format!("{model} after reopen: {e}")));
    }
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
        st.cycle(true);
    }
    st.ctx.rec.finish(start.elapsed());
    st.ctx.measuring = false;
    readouts.after = merged_stats(&st.dep);
    readouts.provider_queries = st.ctx.rec.answers * PROVIDERS as u64;

    let start = Instant::now();
    st.outage(cfg);
    eprintln!(
        "replicated_finetune: outage phase {:.2} s",
        start.elapsed().as_secs_f64()
    );
    let start = Instant::now();
    let report = st.dep.repair();
    readouts.repair_s = start.elapsed().as_secs_f64();
    match report {
        Ok(r) => {
            readouts.repair_models_synced = r.models_synced as u64;
            let verdict = if r.missing_payloads == 0 && r.unreachable.is_empty() {
                Ok(())
            } else {
                Err(format!("repair left work undone: {r:?}"))
            };
            st.ctx.verify(verdict);
        }
        Err(e) => st.ctx.verify(Err(format!("repair: {e}"))),
    }
    if let Some(transfer) = st.dep.ledger().entry("transfer") {
        readouts.repair_bytes_moved = transfer.bytes_out;
    }
    readouts.repair_bytes_saved = merged_stats(&st.dep).transfer_bytes_saved;
    readouts.under_replicated_stores = st.client.telemetry().under_replicated_stores();
    // The post-repair audit: every replica chain complete, every count right.
    audit(&st.dep, &mut st.ctx, &mut readouts);
    let start = Instant::now();
    st.check_watcher(&mut readouts);
    eprintln!(
        "replicated_finetune: watcher caught up in {:.2} s",
        start.elapsed().as_secs_f64()
    );

    let models = st.live_models();
    readouts.live_user_bytes = (models.len() * st.users[0].graph.total_param_bytes()) as u64;
    let State {
        dir,
        config,
        dep,
        client,
        watcher,
        mut ctx,
        ..
    } = st;
    drop((watcher, client, dep));
    readouts.logstore_disk_bytes = dir.disk_bytes();

    // Restart from the logs alone; the clock runs until the first model
    // has been read back and verified.
    let start = Instant::now();
    match Deployment::reopen(config) {
        Err(e) => ctx.verify(Err(format!("reopen: {e}"))),
        Ok(dep) => {
            let client = dep.client();
            let mut models = models.into_iter();
            if let Some(first) = models.next() {
                verify_model(&mut ctx, &client, first);
            }
            readouts.reopen_s = start.elapsed().as_secs_f64();
            for model in models {
                verify_model(&mut ctx, &client, model);
            }
            let verdict = dep.gc_audit();
            ctx.verify(verdict.map_err(|e| format!("gc_audit after reopen: {e}")));
            eprintln!(
                "replicated_finetune: reopened and verified in {:.2} s",
                start.elapsed().as_secs_f64()
            );
        }
    }
    drop(dir);
    outcome(vec![ctx], setup_s, readouts)
}
