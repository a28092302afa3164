//! The provider's catalog reads (`LCP_BATCH`, `MATCH_PATTERN_BATCH`,
//! `GET_META`) run on the caller's thread: they answer while the
//! provider's only service thread is busy, fault injection keeps its
//! meaning for them, and their spans and costs land where a queued
//! handler's would.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use evostore_core::messages::LcpBatchRequest;
use evostore_core::methods::{self, GetMeta, LcpBatch};
use evostore_core::{Deployment, DeploymentConfig};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_obs::ledger::install_costs;
use evostore_obs::{
    set_current_trace, CostsSnapshot, FlightRecorder, MonotonicClock, OpCosts, TimeSource, Tracer,
};
use evostore_rpc::{unary, FaultAction, FaultPlan, FaultRule, Method, RetryPolicy, RpcError};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// The first model id (from 1) hashing to provider index `want` of `n`.
fn model_on(want: usize, n: usize) -> ModelId {
    (1..)
        .map(ModelId)
        .find(|m| m.provider_for(n) == want)
        .unwrap()
}

/// Two providers with one service thread each, and one model stored on
/// provider 0.
fn one_thread_deployment() -> (Deployment, ModelId) {
    let dep = Deployment::new(DeploymentConfig {
        providers: 2,
        service_threads: 1,
        ..Default::default()
    });
    let model = model_on(0, 2);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    dep.client()
        .store_fresh(model, &seq(&[8, 16, 16, 4]), 0.8, &mut rng)
        .unwrap();
    (dep, model)
}

/// With a `Delay` rule holding `evostore.store` on provider 0's only
/// service thread for 3 s, an LCP query reaches every provider and
/// `get_meta` answers, both within one 1 s attempt. (Queued, both legs to
/// provider 0 would wait out the delayed store and time out.)
#[test]
fn catalog_reads_answer_while_a_store_holds_the_only_service_thread() {
    let (dep, model) = one_thread_deployment();
    let p0 = dep.provider_ids()[0];
    let plan = dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(
            FaultRule::new(FaultAction::Delay(Duration::from_secs(3)))
                .on_endpoint(p0)
                .on_method(methods::Store::METHOD)
                .first(1),
        ),
    );
    let writer = {
        let client = dep.client();
        std::thread::spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let other = (1..)
                .map(ModelId)
                .filter(|m| m.provider_for(2) == 0)
                .nth(1)
                .unwrap();
            client.store_fresh(other, &seq(&[8, 16, 8]), 0.5, &mut rng)
        })
    };
    while plan.stats().delays == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let reader = dep
        .client_builder()
        .retry_policy(
            RetryPolicy::default()
                .with_timeout(Duration::from_secs(1))
                .with_attempts(1),
        )
        .build();
    let t0 = Instant::now();
    let got = reader.query_best_ancestor(&seq(&[8, 16, 16, 5])).unwrap();
    assert!(got.unreachable.is_empty(), "{:?}", got.unreachable);
    assert_eq!(got.into_inner().unwrap().model, model);
    assert_eq!(reader.get_meta(model).unwrap().quality, 0.8);
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());

    writer.join().unwrap().expect("the delayed store completes");
}

/// Fault injection keeps its meaning on the caller lane: `Unavailable`
/// fails at dispatch, `DropReply` runs the handler and ends in `Timeout`
/// at the caller's deadline, `Delay` goes through the service queue, and
/// a plan whose rules do not match still runs the call inline.
#[test]
fn fault_plans_keep_their_meaning_on_the_caller_lane() {
    let (dep, _) = one_thread_deployment();
    let (fabric, p0) = (dep.fabric(), dep.provider_ids()[0]);
    let req = LcpBatchRequest {
        graphs: vec![seq(&[8, 16, 4])],
    };
    let policy = RetryPolicy::no_retry().with_timeout(Duration::from_millis(300));
    let call = || unary(fabric, p0, LcpBatch, &req, &policy, None, None);
    let envelopes = || dep.stats()[0].batch_envelopes;
    let lanes = || {
        let s = fabric.stats();
        (s.caller_lane_calls, s.queued_calls)
    };
    let with_rule = |action| {
        fabric.install_fault_plan(
            FaultPlan::new(0).rule(
                FaultRule::new(action)
                    .on_endpoint(p0)
                    .on_method(LcpBatch::METHOD),
            ),
        )
    };

    with_rule(FaultAction::Unavailable);
    let before = lanes();
    assert_eq!(
        fabric
            .call_async(p0, LcpBatch::METHOD, Bytes::new(), None, true)
            .err(),
        Some(RpcError::Unavailable(p0))
    );
    assert_eq!(lanes(), before, "rejected before either lane");

    with_rule(FaultAction::DropReply);
    let ran = envelopes();
    let before = lanes();
    assert_eq!(call().err(), Some(RpcError::Timeout));
    assert_eq!(lanes(), (before.0 + 1, before.1), "dropped inline");
    assert_eq!(fabric.parked_reply_count(), 1);
    assert_eq!(envelopes(), ran + 1, "the handler ran");

    with_rule(FaultAction::Delay(Duration::from_millis(20)));
    let before = lanes();
    assert_eq!(call().unwrap().replies.len(), 1);
    assert_eq!(lanes(), (before.0, before.1 + 1), "a delay is queued");

    fabric.install_fault_plan(
        FaultPlan::new(0)
            .rule(FaultRule::new(FaultAction::Unavailable).on_method(methods::Store::METHOD)),
    );
    let before = lanes();
    assert_eq!(call().unwrap().replies.len(), 1);
    assert_eq!(lanes(), (before.0 + 1, before.1), "no rule matched: inline");
    fabric.clear_fault_plan();
}

/// A traced inline `GET_META` files its handler span under the attempt
/// span in the provider's flight ring and its costs in the provider's
/// ledger; the client op's cost cell carries none of them.
#[test]
fn an_inline_read_keeps_span_and_ledger_parity() {
    let (dep, model) = one_thread_deployment();
    let client = dep.client();
    let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
    let tracer = Tracer::new(
        "test",
        Arc::clone(&wall),
        Arc::new(FlightRecorder::new("test", 16, wall)),
    );
    let root = tracer.start_root("op");
    let costs = OpCosts::new();
    let before = dep.fabric().stats();
    {
        let _trace = set_current_trace(Some(root.ctx()));
        let _costs = install_costs(Some(Arc::clone(&costs)));
        client.get_meta(model).unwrap();
    }
    let after = dep.fabric().stats();
    assert_eq!(after.caller_lane_calls, before.caller_lane_calls + 1);
    assert_eq!(after.queued_calls, before.queued_calls);

    let attempt = client
        .flight_recorder()
        .spans_for_trace(root.ctx().trace_id)
        .into_iter()
        .find(|s| s.name == GetMeta::METHOD)
        .expect("attempt span");
    assert_eq!(attempt.parent_span_id, root.ctx().span_id);
    let provider = &dep.provider_states()[0];
    let handler = provider
        .flight_recorder()
        .spans_for_trace(root.ctx().trace_id)
        .into_iter()
        .find(|s| s.name == GetMeta::METHOD)
        .expect("handler span in the provider's ring");
    assert_eq!(handler.parent_span_id, attempt.span_id);
    assert_eq!(provider.ledger().entry(GetMeta::METHOD).unwrap().ops, 1);
    assert_eq!(costs.snapshot(), CostsSnapshot::default());
}
