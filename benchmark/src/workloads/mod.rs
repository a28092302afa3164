//! The four workloads. Each sets its deployment up (several times, for a
//! steady `setup_s`), runs its measured phase, checks the system's
//! promises, and returns everything it saw as an [`Outcome`].

use std::time::Instant;

use evostore_core::messages::ModelMetaReply;
use evostore_core::{
    BackendKind, Deployment, DeploymentConfig, EvoStoreClient, LoadedModel, ProviderStats,
    ReplicationPolicy, StorePolicy,
};
use evostore_graph::LcpResult;
use evostore_tensor::{ModelId, TensorKey};

use crate::harness::{check_retired, Ctx, RunCfg, Timed};
use crate::metrics::{Outcome, ProbeCounters, Readouts};
use crate::probe::{Bases, LoadInputs, PathSet, Probes};
use crate::trace::Class;

pub mod bulk_checkpoint;
pub mod catalog_churn;
pub mod nas_evolve;
pub mod replicated_finetune;

/// `(name, why it exists)`; `BENCHMARK.json` carries the same list.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "nas_evolve",
        "aged-evolution NAS on two islands: query, fetch prefix, store derived, retire; every layer works and two clients contend",
    ),
    (
        "bulk_checkpoint",
        "continual checkpointing of a 32 MiB model: data-plane bound, catalog and codec nearly idle, so their optimisations must not move it",
    ),
    (
        "catalog_churn",
        "LCP and pattern queries over 3000 tiny models beside a store/retire writer: metadata bound, tensors and kv nearly idle",
    ),
    (
        "replicated_finetune",
        "fine-tune lineages on 3 replicated log-backed providers with chunking and deltas, then outage, repair and restart",
    ),
];

pub fn run(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "nas_evolve" => Ok(nas_evolve::run(cfg)),
        "bulk_checkpoint" => Ok(bulk_checkpoint::run(cfg)),
        "catalog_churn" => Ok(catalog_churn::run(cfg)),
        "replicated_finetune" => Ok(replicated_finetune::run(cfg)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Set up `cfg.scaled(3, 1)` times, timing each, and keep the last state:
/// `setup_s` is the median, so one slow allocation does not decide it.
pub(crate) fn repeat_setup<S>(cfg: &RunCfg, setup: impl Fn() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..cfg.scaled(3, 1) {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// The deployment the three whole-record workloads share: two in-memory
/// providers with one service thread each (the reference host has two
/// cores), default store policy.
pub(crate) fn memory_deployment() -> Deployment {
    Deployment::new(DeploymentConfig {
        providers: 2,
        service_threads: 1,
        ..Default::default()
    })
}

/// The layer probes of a traced run against [`memory_deployment`].
pub(crate) fn memory_probes(cfg: &RunCfg, dep: &Deployment) -> Option<Probes> {
    cfg.trace
        .then(|| Probes::new(cfg, PathSet::memory(dep.provider_ids().len())))
}

pub(crate) fn log_deployment_config(dir: &std::path::Path) -> DeploymentConfig {
    DeploymentConfig {
        providers: 3,
        service_threads: 1,
        backend: BackendKind::Log {
            dir: dir.to_path_buf(),
        },
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    }
}

pub(crate) fn merged_stats(dep: &Deployment) -> ProviderStats {
    dep.stats()
        .into_iter()
        .fold(ProviderStats::default(), ProviderStats::merge)
}

/// Restrict an LCP to the vertices below `keep`: the model keeps (freezes)
/// those layers and retrains the rest.
pub(crate) fn freeze_prefix(lcp: &LcpResult, keep: usize) -> LcpResult {
    let mut r = lcp.clone();
    r.prefix.retain(|v| (v.0 as usize) < keep);
    for m in r.match_in_ancestor.iter_mut().skip(keep) {
        *m = None;
    }
    r
}

/// Retire `model` (which referenced `keys`) under the clock, check that it
/// is gone for good, and replay the op when it is its turn.
pub(crate) fn retire(
    ctx: &mut Ctx,
    client: &EvoStoreClient,
    model: ModelId,
    keys: &[TensorKey],
) -> bool {
    let Some(retired) = ctx.timed(Class::Retire, client, |c| c.retire_model(model)) else {
        return false;
    };
    ctx.note(b'r', model.0, retired.value.tensors_reclaimed as u64);
    ctx.loadgen(|ctx| ctx.verify(check_retired(client, model)));
    ctx.replay(retired.op, |p, t, op| {
        p.replay_retire(t, op, keys, retired.rpc_calls)
    });
    if let Some(p) = ctx.probes.as_mut() {
        p.catalog_remove(&mut ctx.tracer, retired.op, model);
    }
    true
}

/// Replay a `load_model` call when it is its turn.
pub(crate) fn replay_loaded(ctx: &mut Ctx, loaded: &Timed<LoadedModel>, bases: Option<&Bases>) {
    ctx.replay(loaded.op, |p, t, op| {
        let model = &loaded.value;
        let meta = ModelMetaReply {
            graph: model.graph.clone(),
            owner_map: model.owner_map.clone(),
            parent: model.parent,
            quality: model.quality,
            timestamp: 0,
        };
        p.replay_load(
            t,
            op,
            &LoadInputs {
                meta: &meta,
                tensors: &model.tensors,
                bases,
                rpc_calls: loaded.rpc_calls,
            },
        )
    });
}

/// Time the end-of-run audit and the metrics snapshot, and check the
/// audit's verdict.
pub(crate) fn audit(dep: &Deployment, ctx: &mut Ctx, readouts: &mut Readouts) {
    let start = Instant::now();
    let verdict = dep.gc_audit();
    readouts.gc_audit_ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.verify(verdict.map_err(|e| format!("gc_audit: {e}")));
    let start = Instant::now();
    let snapshot = dep.metrics_snapshot();
    readouts.metrics_snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(snapshot);
}

/// Fold the per-thread contexts into one outcome.
pub(crate) fn outcome(ctxs: Vec<Ctx>, setup_s: Vec<f64>, readouts: Readouts) -> Outcome {
    let mut ctxs = ctxs.into_iter();
    let first = ctxs.next().expect("at least one load-generating thread");
    let (mut rec, mut tracer) = (first.rec, first.tracer);
    let mut probes = ProbeCounters::default();
    let mut fold = |p: Option<Probes>| {
        if let Some(p) = p {
            probes.add(&p.finish());
        }
    };
    fold(first.probes);
    for c in ctxs {
        rec.merge(&c.rec);
        tracer.merge(c.tracer);
        fold(c.probes);
    }
    Outcome {
        rec,
        tracer,
        probes,
        setup_s,
        readouts,
    }
}
