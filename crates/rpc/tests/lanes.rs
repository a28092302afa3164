//! The two dispatch lanes: a queued method waits for the endpoint's
//! service threads, a caller-lane method runs on the calling thread and
//! so cannot wait behind them — unless it is a leg of a round too wide to
//! run one leg after another; a panicking handler fails its call on
//! either lane and leaves the thread it ran on serving.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::bounded;
use evostore_obs::ledger::{add_bytes_out, current_costs, install_costs};
use evostore_obs::{current_trace, FlightRecorder, MonotonicClock, OpCosts, TimeSource, Tracer};
use evostore_rpc::{
    broadcast, unary, EndpointId, Fabric, FaultAction, FaultPlan, FaultRule, Method, RetryPolicy,
    RpcError,
};

evostore_rpc::rpc_methods! {
    /// Answers with the id of the thread it ran on.
    Here = "here": String => String, lane = Caller;
    /// The same on the service queue.
    Queued = "queued": String => String;
}

fn this_thread() -> String {
    format!("{:?}", std::thread::current().id())
}

/// Deterministic head-of-line: the endpoint's only service thread is held
/// by a queued handler until the test releases it, yet a caller-lane call
/// to the same endpoint returns, having run on the calling thread.
#[test]
fn a_caller_lane_call_does_not_wait_behind_a_held_service_thread() {
    let fabric = Fabric::new();
    let ep = fabric.create_endpoint(1);
    let (started_tx, started_rx) = bounded::<()>(1);
    let (release_tx, release_rx) = bounded::<()>(1);
    ep.serve(Queued, move |_| {
        started_tx.send(()).unwrap();
        release_rx.recv().unwrap();
        Ok(this_thread())
    });
    ep.serve(Here, |_| Ok(this_thread()));
    let policy = RetryPolicy::no_retry().with_timeout(Duration::from_secs(5));

    let held = fabric
        .call_async(
            ep.id(),
            Queued::METHOD,
            serde_json::to_vec("").unwrap().into(),
            None,
            true,
        )
        .unwrap();
    started_rx.recv().unwrap();
    let ran_on = unary(&fabric, ep.id(), Here, &String::new(), &policy, None, None).unwrap();
    assert_eq!(ran_on, this_thread(), "the handler ran on the caller");

    release_tx.send(()).unwrap();
    let held: String = serde_json::from_slice(&held.recv().unwrap().unwrap()).unwrap();
    assert_ne!(
        held,
        this_thread(),
        "the queued handler ran on a service thread"
    );
    let stats = fabric.stats();
    assert_eq!((stats.caller_lane_calls, stats.queued_calls), (1, 1));
}

/// A caller-lane handler sees the caller's trace context and no ambient
/// op-cost cell, exactly as on a service thread: what it charges never
/// lands in the caller's op.
#[test]
fn a_caller_lane_handler_runs_under_the_trace_but_outside_the_callers_costs() {
    let fabric = Fabric::new();
    let ep = fabric.create_endpoint(1);
    let saw_costs = Arc::new(AtomicBool::new(true));
    let saw = Arc::clone(&saw_costs);
    ep.serve(Here, move |_| {
        saw.store(current_costs().is_some(), Ordering::SeqCst);
        add_bytes_out(64);
        Ok(current_trace()
            .map(|t| t.span_id.to_string())
            .unwrap_or_default())
    });

    let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
    let ring = Arc::new(FlightRecorder::new("caller", 16, Arc::clone(&wall)));
    let tracer = Tracer::new("caller", wall, ring);
    let root = tracer.start_root("op");
    let costs = OpCosts::new();
    let _costs = install_costs(Some(Arc::clone(&costs)));
    let body = Bytes::from(serde_json::to_vec("").unwrap());
    let reply = fabric
        .call_async(ep.id(), Here::METHOD, body, Some(root.ctx()), true)
        .unwrap()
        .try_recv()
        .expect("a caller-lane reply is ready when call_async returns")
        .unwrap();
    let seen: String = serde_json::from_slice(&reply).unwrap();
    assert_eq!(seen, root.ctx().span_id.to_string());
    assert!(
        !saw_costs.load(Ordering::SeqCst),
        "no cost cell in the handler"
    );
    assert_eq!(costs.snapshot().bytes_out, 0);
    assert!(current_costs().is_some(), "the caller's cell is back");
}

/// A handler that panics once, on a one-thread endpoint, fails that call
/// with a typed error — and the next call is served, on either lane.
#[test]
fn a_panicking_handler_fails_its_call_and_the_endpoint_keeps_serving() {
    for method in [Queued::METHOD, Here::METHOD] {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        let first = AtomicBool::new(true);
        let handler = move |body: Bytes| {
            if first.swap(false, Ordering::SeqCst) {
                panic!("injected");
            }
            Ok(body)
        };
        if method == Here::METHOD {
            ep.serve_bytes(Here, handler);
        } else {
            ep.serve_bytes(Queued, handler);
        }
        assert_eq!(
            fabric.call(ep.id(), method, Bytes::from_static(b"a")),
            Err(RpcError::Handler("handler panicked: injected".into())),
            "{method}"
        );
        assert_eq!(
            fabric.call(ep.id(), method, Bytes::from_static(b"b")),
            Ok(Bytes::from_static(b"b")),
            "{method}: the endpoint still serves"
        );
    }
}

/// A round of two caller-lane legs runs both on the caller; a round of
/// three queues every leg, and the three run at once: each handler waits
/// (up to a second) until all three have started, which legs run one
/// after another could never see.
#[test]
fn a_wide_round_queues_its_caller_lane_legs_and_runs_them_in_parallel() {
    let fabric = Fabric::new();
    let started = Arc::new(AtomicUsize::new(0));
    let eps: Vec<_> = (0..3)
        .map(|_| {
            let ep = fabric.create_endpoint(1);
            let started = Arc::clone(&started);
            ep.serve(Here, move |wide: String| {
                if !wide.is_empty() {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(1);
                    while started.load(Ordering::SeqCst) < 3 {
                        if Instant::now() > deadline {
                            return Err("ran alone".into());
                        }
                        std::thread::yield_now();
                    }
                }
                Ok(this_thread())
            });
            ep
        })
        .collect();
    let ids: Vec<EndpointId> = eps.iter().map(|ep| ep.id()).collect();
    let policy = RetryPolicy::no_retry().with_timeout(Duration::from_secs(5));
    let threads = |targets: &[EndpointId], wide: String| -> Vec<String> {
        broadcast(&fabric, targets, Here, &wide, &policy, None, None)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.unwrap())
            .collect()
    };
    let lanes = || {
        let stats = fabric.stats();
        (stats.caller_lane_calls, stats.queued_calls)
    };

    assert_eq!(threads(&ids[..2], String::new()), vec![this_thread(); 2]);
    assert_eq!(lanes(), (2, 0));

    let ran_on = threads(&ids, "wide".into());
    assert!(ran_on.iter().all(|t| *t != this_thread()), "{ran_on:?}");
    assert_eq!(lanes(), (2, 3));
}

/// A round's deadline runs from its first dispatch: a leg queued by an
/// injected delay behind an inline leg that used most of the deadline
/// times out, instead of getting a fresh deadline after the inline run.
#[test]
fn a_rounds_deadline_covers_its_inline_legs() {
    let fabric = Fabric::new();
    let slow = fabric.create_endpoint(1);
    slow.serve(Here, |_| {
        std::thread::sleep(Duration::from_millis(300));
        Ok(this_thread())
    });
    let delayed = fabric.create_endpoint(1);
    delayed.serve(Here, |_| Ok(this_thread()));
    fabric.install_fault_plan(FaultPlan::new(0).rule(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(300))).on_endpoint(delayed.id()),
    ));
    let policy = RetryPolicy::no_retry().with_timeout(Duration::from_millis(450));
    let replies = broadcast(
        &fabric,
        &[slow.id(), delayed.id()],
        Here,
        &String::new(),
        &policy,
        None,
        None,
    )
    .unwrap();
    assert_eq!(replies[0].1.as_deref(), Ok(this_thread().as_str()));
    assert_eq!(replies[1].1, Err(RpcError::Timeout));
}
