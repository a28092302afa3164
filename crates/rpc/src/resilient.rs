//! The resilient typed call surface: retries, deadlines, metrics.
//!
//! One policy-driven surface for every call shape the client needs:
//!
//! * [`unary`] — one typed request/response pair (a collective of one);
//! * [`fan_out`] — per-target request bodies, all in flight at once;
//! * [`broadcast`] — one body to many targets, all in flight at once.
//!
//! Every shape takes a [`RetryPolicy`]: each attempt runs under a
//! per-call deadline, *transient* failures ([`RpcError::is_transient`])
//! are retried with bounded exponential backoff, permanent ones fail
//! immediately. An optional [`RpcMetrics`] records retries, timeouts and
//! exhausted calls so callers (the EvoStore client's telemetry) can
//! report them. Every shape runs on the caller's thread over one
//! overlapped dispatch engine (a unary call is a collective of one leg)
//! and spawns nothing. Walking a replica chain is the caller's job: the
//! EvoStore client's one walk wraps call, pull and decode together.

use std::time::{Duration, Instant};

use bytes::Bytes;
use evostore_obs::ledger::{add_queue_wait_us, add_retry};
use evostore_obs::{counter_set, Span, TraceContext, Tracer};

use crate::codec::{decode, encode};
use crate::fabric::{EndpointId, Fabric, RpcError};
use crate::method::Method;

/// Where attempt spans of a traced call should hang: a tracer to open
/// them on and the parent context (normally the client operation's root
/// span). Every resilient shape takes `Option<&TraceHandle>`; `None`
/// keeps the untraced fast path.
#[derive(Debug, Clone, Copy)]
pub struct TraceHandle<'a> {
    /// Tracer the attempt spans are opened on (the caller's node).
    pub tracer: &'a Tracer,
    /// Parent context attempt spans are filed under.
    pub parent: TraceContext,
}

impl<'a> TraceHandle<'a> {
    /// Attempt spans go on `tracer`, under `parent`.
    pub fn new(tracer: &'a Tracer, parent: TraceContext) -> TraceHandle<'a> {
        TraceHandle { tracer, parent }
    }

    fn attempt(&self, method: &str, target: EndpointId) -> Span<'a> {
        self.tracer.start_child(self.parent, method, Some(target.0))
    }
}

/// Bounded-exponential-backoff retry policy with a per-attempt deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Deadline for each individual attempt.
    pub call_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
            call_timeout: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Single attempt, generous deadline — the behavior of the legacy
    /// raw call path (minus its ability to hang forever).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            call_timeout: Duration::from_secs(30),
        }
    }

    /// Override the attempt budget (clamped to ≥ 1).
    pub fn with_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Override the per-attempt deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.call_timeout = timeout;
        self
    }

    /// Backoff to sleep before retry number `retry` (1-based): base,
    /// 2·base, 4·base, ... capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        (self.base_backoff * 2u32.saturating_pow(exp)).min(self.max_backoff)
    }
}

counter_set! {
    /// Counters for what the resilient surface had to do, fed by every
    /// call a client issues. Shareable across threads.
    pub struct RpcMetrics;
    /// [`RpcMetrics`] at one instant.
    #[derive(Copy, Eq)]
    pub struct RpcStats {
        /// Total attempts issued (first tries and retries alike).
        calls: atomic sum counter "evostore_client_rpc_calls",
        /// Attempts re-issued after a transient failure.
        retries: atomic sum counter "evostore_client_rpc_retries",
        /// Attempts that ended in `RpcError::Timeout`.
        timeouts: atomic sum counter "evostore_client_rpc_timeouts",
        /// Calls that failed transiently with the attempt budget spent.
        exhausted: atomic sum counter "evostore_client_rpc_exhausted",
    }
}

impl RpcMetrics {
    fn note(&self, err: &RpcError) {
        if matches!(err, RpcError::Timeout) {
            self.timeouts.add(1);
        }
    }
}

fn note_metrics(metrics: Option<&RpcMetrics>, f: impl FnOnce(&RpcMetrics)) {
    if let Some(m) = metrics {
        f(m);
    }
}

/// Charge `legs` retries to the metrics and the ambient op ledger, then
/// sleep the back-off that precedes retry number `retry`.
fn back_off(policy: &RetryPolicy, retry: u32, legs: usize, metrics: Option<&RpcMetrics>) {
    note_metrics(metrics, |m| {
        m.retries.add(legs as u64);
    });
    for _ in 0..legs {
        add_retry();
    }
    let backoff = policy.backoff(retry);
    add_queue_wait_us(backoff.as_micros() as u64);
    std::thread::sleep(backoff);
}

/// Typed unary call with retries: the collective engine over one leg.
/// Each attempt runs under `policy.call_timeout`; transient errors are
/// retried with backoff until the budget is spent. With a `trace`, each
/// attempt gets its own child span (named after the method, labeled
/// with the target endpoint, failed with the attempt's error) and its
/// context rides the request envelope so the provider's handler span
/// joins the same trace.
pub fn unary<M: Method>(
    fabric: &Fabric,
    target: EndpointId,
    _method: M,
    req: &M::Request,
    policy: &RetryPolicy,
    metrics: Option<&RpcMetrics>,
    trace: Option<&TraceHandle<'_>>,
) -> Result<M::Reply, RpcError> {
    let leg = [(target, encode(req)?)];
    let (_, reply) = overlapped(fabric, &leg, M::METHOD, policy, metrics, trace)
        .pop()
        .expect("one result per leg");
    decode(&reply?)
}

/// Per-target results of a collective: one entry per input target, in
/// input order, each leg succeeding or failing independently.
pub type LegResults<T> = Vec<(EndpointId, Result<T, RpcError>)>;

/// Typed fan-out: a distinct request per target, all legs in flight at
/// once, transient failures retried in overlapped rounds per `policy`
/// (the engine under [`unary`] and [`broadcast`] too). Results come back
/// in input order; per-leg failures — an encode error included — do not
/// abort the others. With a `trace`, every leg's attempts become sibling
/// spans under the same parent.
pub fn fan_out<M: Method>(
    fabric: &Fabric,
    legs: &[(EndpointId, M::Request)],
    _method: M,
    policy: &RetryPolicy,
    metrics: Option<&RpcMetrics>,
    trace: Option<&TraceHandle<'_>>,
) -> LegResults<M::Reply> {
    let encoded: Vec<(EndpointId, Result<Bytes, RpcError>)> = legs
        .iter()
        .map(|(target, req)| (*target, encode(req)))
        .collect();
    let sent: Vec<(EndpointId, Bytes)> = encoded
        .iter()
        .filter_map(|(target, body)| Some((*target, body.as_ref().ok()?.clone())))
        .collect();
    let mut replies = overlapped(fabric, &sent, M::METHOD, policy, metrics, trace).into_iter();
    encoded
        .into_iter()
        .map(|(target, body)| {
            let reply = body.and_then(|_| replies.next().expect("one reply per sent leg").1);
            (target, reply.and_then(|reply| decode(&reply)))
        })
        .collect()
}

/// The widest round whose [`Lane::Caller`](crate::Lane::Caller) legs run
/// on the caller. Such legs run one after another during dispatch, so a
/// round of two costs at most one handler run more than a parallel
/// dispatch, and saves each leg the queue handoff and the wait behind the
/// target's other work. A wider round — a broadcast over many providers,
/// whose partitions shrink as providers are added and are walked in
/// parallel (§4.1) — queues every leg, so its latency stays that of its
/// slowest leg.
const INLINE_ROUND_LEGS: usize = 2;

/// The one dispatch engine under every shape, on the caller's thread:
/// every pending leg is issued with `call_async` before any reply is
/// awaited, replies are collected under a per-round deadline, and legs
/// that failed transiently go again in the next overlapped round after a
/// backoff — so a call costs one round trip per round, not a thread per
/// leg. A round of at most [`INLINE_ROUND_LEGS`] runs its caller-lane
/// legs inside their dispatch. Retries and backoff charge the caller's
/// ambient op ledger directly.
fn overlapped(
    fabric: &Fabric,
    legs: &[(EndpointId, Bytes)],
    method: &str,
    policy: &RetryPolicy,
    metrics: Option<&RpcMetrics>,
    trace: Option<&TraceHandle<'_>>,
) -> LegResults<Bytes> {
    let mut results: Vec<Option<Result<Bytes, RpcError>>> = legs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..legs.len()).collect();

    let max_attempts = policy.max_attempts.max(1);
    for attempt in 1..=max_attempts {
        // Issue every pending leg before collecting any reply. The
        // round's deadline runs from here, so a leg queued by an injected
        // delay does not gain the time the round's inline legs took.
        let inline = pending.len() <= INLINE_ROUND_LEGS;
        let round_start = Instant::now();
        let in_flight: Vec<(usize, _, _)> = pending
            .iter()
            .map(|&i| {
                let (target, body) = &legs[i];
                note_metrics(metrics, |m| {
                    m.calls.add(1);
                });
                let span = trace.map(|t| t.attempt(method, *target));
                let ctx = span.as_ref().map(|s| s.ctx());
                (
                    i,
                    span,
                    fabric.call_async(*target, method, body.clone(), ctx, inline),
                )
            })
            .collect();

        let mut still_pending = Vec::new();
        for (i, mut span, dispatched) in in_flight {
            let outcome = match dispatched {
                Ok(rx) => {
                    // Legs share the round's deadline: queued legs run
                    // concurrently, so the slowest bounds the round; an
                    // inline leg's reply is already here, and is taken
                    // even if running it used the deadline up.
                    let left = policy.call_timeout.saturating_sub(round_start.elapsed());
                    match rx.recv_timeout(left) {
                        Ok(result) => result,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            Err(RpcError::Timeout)
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            Err(RpcError::Disconnected)
                        }
                    }
                }
                Err(e) => Err(e),
            };
            if let (Some(s), Err(err)) = (span.as_mut(), &outcome) {
                s.fail(err.to_string());
            }
            drop(span);
            match outcome {
                Ok(reply) => results[i] = Some(Ok(reply)),
                Err(err) => {
                    note_metrics(metrics, |m| m.note(&err));
                    if err.is_transient() && attempt < max_attempts {
                        still_pending.push(i);
                    } else {
                        if err.is_transient() {
                            note_metrics(metrics, |m| {
                                m.exhausted.add(1);
                            });
                        }
                        results[i] = Some(Err(err));
                    }
                }
            }
        }

        pending = still_pending;
        if pending.is_empty() {
            break;
        }
        back_off(policy, attempt, pending.len(), metrics);
    }

    legs.iter()
        .zip(results)
        .map(|((t, _), r)| (*t, r.expect("every leg resolved")))
        .collect()
}

/// Typed resilient broadcast: encode once, send the one body to every
/// target with all legs in flight before any reply is awaited
/// (preserving the overlap the LCP query depends on), decode each
/// success. Returns one entry per target, in input order; the per-leg
/// `Result` keeps partial outcomes visible so callers can apply quorum
/// semantics.
pub fn broadcast<M: Method>(
    fabric: &Fabric,
    targets: &[EndpointId],
    _method: M,
    req: &M::Request,
    policy: &RetryPolicy,
    metrics: Option<&RpcMetrics>,
    trace: Option<&TraceHandle<'_>>,
) -> Result<LegResults<M::Reply>, RpcError> {
    let body = encode(req)?;
    let legs: Vec<(EndpointId, Bytes)> = targets.iter().map(|&t| (t, body.clone())).collect();
    Ok(overlapped(fabric, &legs, M::METHOD, policy, metrics, trace)
        .into_iter()
        .map(|(t, r)| (t, r.and_then(|reply| decode(&reply))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan, FaultRule};
    use evostore_obs::{FlightRecorder, MonotonicClock, OpCosts, TimeSource};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    crate::rpc_methods! {
        /// Replies with its request.
        Echo = "echo": String => String;
        /// Counts its calls.
        Incr = "incr": String => String;
        /// Registered nowhere.
        Missing = "no-such-method": String => String;
    }

    fn echo_fabric(n: usize) -> (Arc<Fabric>, Vec<crate::fabric::Endpoint>) {
        let fabric = Fabric::new();
        let eps: Vec<_> = (0..n)
            .map(|_| {
                let ep = fabric.create_endpoint(2);
                ep.serve(Echo, Ok);
                ep
            })
            .collect();
        (fabric, eps)
    }

    /// Run `check` (which builds its own fabric, so fault budgets start
    /// fresh) once untraced and once under a trace handle — the two
    /// halves of each former plain/`_traced` pair. Returns how many
    /// attempt spans the traced pass recorded, and how many failed.
    fn untraced_then_traced(check: impl Fn(Option<&TraceHandle<'_>>)) -> (usize, usize) {
        check(None);
        traced(check).1
    }

    /// Run `f` under a fresh trace handle; returns its output, and how
    /// many attempt spans it recorded and how many of those failed.
    fn traced<T>(f: impl FnOnce(Option<&TraceHandle<'_>>) -> T) -> (T, (usize, usize)) {
        let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
        let ring = Arc::new(FlightRecorder::new("caller", 256, Arc::clone(&wall)));
        let tracer = Tracer::new("caller", wall, Arc::clone(&ring));
        let root = tracer.start_root("op");
        let out = f(Some(&TraceHandle::new(&tracer, root.ctx())));
        let attempts = ring.spans_for_trace(root.ctx().trace_id);
        let failed = attempts.iter().filter(|s| !s.is_ok()).count();
        (out, (attempts.len(), failed))
    }

    #[test]
    fn unary_retries_through_transient_faults() {
        let attempts = untraced_then_traced(|trace| {
            let (fabric, eps) = echo_fabric(1);
            // First two dispatches time out, third succeeds.
            fabric.install_fault_plan(
                FaultPlan::new(7).rule(FaultRule::new(FaultAction::Timeout).first(2)),
            );
            let metrics = RpcMetrics::new();
            let policy = RetryPolicy::default().with_attempts(3);
            let got = unary(
                &fabric,
                eps[0].id(),
                Echo,
                &"hello".to_string(),
                &policy,
                Some(&metrics),
                trace,
            )
            .unwrap();
            assert_eq!(got, "hello");
            assert_eq!(metrics.retries(), 2);
            assert_eq!(metrics.timeouts(), 2);
            assert_eq!(metrics.exhausted(), 0);
        });
        assert_eq!(attempts, (3, 2));
    }

    #[test]
    fn unary_exhausts_on_persistent_fault() {
        let attempts = untraced_then_traced(|trace| {
            let (fabric, eps) = echo_fabric(1);
            let plan = fabric.install_fault_plan(FaultPlan::new(7));
            plan.set_down(eps[0].id());
            let metrics = RpcMetrics::new();
            let policy = RetryPolicy::default().with_attempts(3);
            let err = unary(
                &fabric,
                eps[0].id(),
                Echo,
                &"x".to_string(),
                &policy,
                Some(&metrics),
                trace,
            )
            .unwrap_err();
            assert_eq!(err, RpcError::Unavailable(eps[0].id()));
            assert_eq!(metrics.retries(), 2);
            assert_eq!(metrics.exhausted(), 1);
        });
        assert_eq!(attempts, (3, 3));
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let attempts = untraced_then_traced(|trace| {
            let (fabric, eps) = echo_fabric(1);
            let metrics = RpcMetrics::new();
            let err = unary(
                &fabric,
                eps[0].id(),
                Missing,
                &"x".to_string(),
                &RetryPolicy::default(),
                Some(&metrics),
                trace,
            )
            .unwrap_err();
            assert!(matches!(err, RpcError::NoSuchMethod(_)));
            assert_eq!(metrics.retries(), 0);
        });
        assert_eq!(attempts, (1, 1));
    }

    #[test]
    fn fan_out_isolates_leg_failures() {
        let attempts = untraced_then_traced(|trace| {
            let (fabric, eps) = echo_fabric(3);
            let plan = fabric.install_fault_plan(FaultPlan::new(7));
            plan.set_down(eps[1].id());
            let legs: Vec<(EndpointId, String)> = eps
                .iter()
                .enumerate()
                .map(|(i, ep)| (ep.id(), format!("leg{i}")))
                .collect();
            let policy = RetryPolicy::default()
                .with_attempts(2)
                .with_timeout(Duration::from_millis(500));
            let results = fan_out(&fabric, &legs, Echo, &policy, None, trace);
            assert_eq!(results[0].1.as_deref().unwrap(), "leg0");
            assert_eq!(results[1].1, Err(RpcError::Unavailable(eps[1].id())));
            assert_eq!(results[2].1.as_deref().unwrap(), "leg2");
        });
        // Two clean legs, two failed attempts on the down one.
        assert_eq!(attempts, (4, 2));
    }

    #[test]
    fn broadcast_recovers_flaky_member_and_overlaps() {
        let attempts = untraced_then_traced(|trace| {
            let (fabric, eps) = echo_fabric(4);
            let ids: Vec<_> = eps.iter().map(|e| e.id()).collect();
            // Endpoint 2's first dispatch is rejected, then it heals.
            fabric.install_fault_plan(
                FaultPlan::new(7).rule(
                    FaultRule::new(FaultAction::Unavailable)
                        .on_endpoint(ids[2])
                        .first(1),
                ),
            );
            let metrics = RpcMetrics::new();
            let results = broadcast(
                &fabric,
                &ids,
                Echo,
                &"ping".to_string(),
                &RetryPolicy::default(),
                Some(&metrics),
                trace,
            )
            .unwrap();
            assert_eq!(results.len(), 4);
            assert!(results.iter().all(|(_, r)| r.is_ok()));
            assert_eq!(metrics.retries(), 1);
        });
        assert_eq!(attempts, (5, 1));
    }

    /// Every leg of a collective is in flight before any reply is
    /// awaited: N endpoints whose handlers meet on a `Barrier(N)` all
    /// answer. A serial loop of `unary` calls would time out every leg
    /// but the last.
    #[test]
    fn fan_out_puts_every_leg_in_flight_at_once() {
        const N: usize = 3;
        let fabric = Fabric::new();
        let meet = Arc::new(Barrier::new(N));
        let eps: Vec<_> = (0..N)
            .map(|_| {
                let ep = fabric.create_endpoint(1);
                let meet = Arc::clone(&meet);
                ep.serve(Echo, move |body| {
                    meet.wait();
                    Ok(body)
                });
                ep
            })
            .collect();
        let legs: Vec<(EndpointId, String)> = eps
            .iter()
            .enumerate()
            .map(|(i, ep)| (ep.id(), format!("leg{i}")))
            .collect();
        let policy = RetryPolicy::no_retry().with_timeout(Duration::from_secs(5));
        let results = fan_out(&fabric, &legs, Echo, &policy, None, None);
        for (i, (_, reply)) in results.iter().enumerate() {
            assert_eq!(reply.as_deref(), Ok(format!("leg{i}").as_str()));
        }
    }

    /// `fan_out` with identical bodies is `broadcast`, and `unary` is a
    /// one-leg `fan_out`: under the same seeded fault plan each pair sees
    /// the same faults, settles every leg the same way, counts the same
    /// retries and opens the same attempt spans.
    #[test]
    fn fan_out_and_broadcast_share_one_engine() {
        #[derive(Clone, Copy)]
        enum Shape {
            FanOut,
            Broadcast,
            Unary,
        }
        let run = |shape: Shape, legs: usize, seed: u64| {
            traced(|trace| {
                let (fabric, eps) = echo_fabric(legs);
                fabric.install_fault_plan(
                    FaultPlan::new(seed)
                        .rule(FaultRule::new(FaultAction::Unavailable).with_probability(0.3))
                        .rule(FaultRule::new(FaultAction::Timeout).with_probability(0.3)),
                );
                let ids: Vec<_> = eps.iter().map(|e| e.id()).collect();
                let body = "ping".to_string();
                let metrics = RpcMetrics::new();
                let policy = RetryPolicy::default();
                let results = match shape {
                    Shape::FanOut => {
                        let legs: Vec<_> = ids.iter().map(|&id| (id, body.clone())).collect();
                        fan_out(&fabric, &legs, Echo, &policy, Some(&metrics), trace)
                    }
                    Shape::Broadcast => {
                        broadcast(&fabric, &ids, Echo, &body, &policy, Some(&metrics), trace)
                            .unwrap()
                    }
                    Shape::Unary => vec![(
                        ids[0],
                        unary(&fabric, ids[0], Echo, &body, &policy, Some(&metrics), trace),
                    )],
                };
                (results, metrics.snapshot())
            })
        };
        let fanned = run(Shape::FanOut, 4, 11);
        assert_eq!(fanned, run(Shape::Broadcast, 4, 11));
        // The seed exercises both outcomes: legs that recover and legs
        // that exhaust their budget.
        let ((results, stats), _) = fanned;
        assert!(results.iter().any(|(_, r)| r.is_ok()), "{results:?}");
        assert!(stats.retries > 0 && stats.timeouts > 0, "{stats:?}");
        assert!(stats.exhausted > 0, "{stats:?}");

        // One leg: across these seeds the call recovers after retries on
        // some and exhausts its budget on others.
        let (mut recovered, mut exhausted) = (false, false);
        for seed in 0..16 {
            let single = run(Shape::FanOut, 1, seed);
            assert_eq!(single, run(Shape::Unary, 1, seed), "seed {seed}");
            let ((results, stats), _) = single;
            recovered |= results[0].1.is_ok() && stats.retries > 0;
            exhausted |= stats.exhausted > 0;
        }
        assert!(recovered && exhausted);
    }

    /// A retried leg charges the caller's ambient op cell directly: the
    /// collective runs on the caller's thread, nothing is re-installed.
    #[test]
    fn fan_out_retries_charge_the_callers_op_costs() {
        let (fabric, eps) = echo_fabric(2);
        fabric.install_fault_plan(
            FaultPlan::new(7).rule(
                FaultRule::new(FaultAction::Unavailable)
                    .on_endpoint(eps[1].id())
                    .first(1),
            ),
        );
        let legs: Vec<_> = eps.iter().map(|ep| (ep.id(), "x".to_string())).collect();
        let policy = RetryPolicy::default();
        let costs = OpCosts::new();
        let results = {
            let _costs = evostore_obs::ledger::install_costs(Some(Arc::clone(&costs)));
            fan_out(&fabric, &legs, Echo, &policy, None, None)
        };
        assert!(results.iter().all(|(_, r)| r.is_ok()), "{results:?}");
        let charged = costs.snapshot();
        assert_eq!(charged.retries, 1);
        assert_eq!(
            charged.queue_wait_us,
            policy.backoff(1).as_micros() as u64,
            "the retry's backoff is the op's queue wait"
        );
    }

    #[test]
    fn dropped_reply_surfaces_as_timeout_not_hang() {
        let attempts = untraced_then_traced(|trace| {
            let fabric = Fabric::new();
            let ep = fabric.create_endpoint(1);
            let served = Arc::new(AtomicU64::new(0));
            {
                let served = Arc::clone(&served);
                ep.serve(Incr, move |req| {
                    served.fetch_add(1, Ordering::SeqCst);
                    Ok(req)
                });
            }
            fabric.install_fault_plan(
                FaultPlan::new(7).rule(FaultRule::new(FaultAction::DropReply).first(1)),
            );
            let policy = RetryPolicy::default()
                .with_attempts(2)
                .with_timeout(Duration::from_millis(100));
            let metrics = RpcMetrics::new();
            let r = unary(
                &fabric,
                ep.id(),
                Incr,
                &String::new(),
                &policy,
                Some(&metrics),
                trace,
            );
            assert!(r.is_ok(), "retry after dropped reply should succeed: {r:?}");
            assert_eq!(metrics.timeouts(), 1);
            // The dropped attempt's handler still ran: at the RPC layer the
            // side effect happens twice. Handlers with non-idempotent effects
            // must deduplicate at the application layer (as the provider's
            // refs handlers do via a per-operation id).
            assert_eq!(served.load(Ordering::SeqCst), 2);
        });
        assert_eq!(attempts, (2, 1));
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(4), Duration::from_millis(10));
        assert_eq!(p.backoff(30), Duration::from_millis(10));
    }
}
