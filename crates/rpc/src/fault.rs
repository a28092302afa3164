//! Opt-in fault injection for the in-process fabric.
//!
//! A [`FaultPlan`] describes *which* calls misbehave ([`FaultRule`]:
//! per-endpoint, per-method, probabilistic and/or call-count-windowed)
//! and *how* ([`FaultAction`]: fail fast, time out, delay service, or
//! deliver the request but drop the reply). Independently of rules, an
//! endpoint can be marked down/up dynamically ([`FaultPlan::set_down`] /
//! [`FaultPlan::set_up`]) — down endpoints reject dispatch with
//! [`RpcError::Unavailable`] and their *owned* bulk regions become
//! unreadable, modeling a crashed provider whose RDMA windows vanish
//! with it.
//!
//! The plan is installed on a [`Fabric`](crate::fabric::Fabric) via
//! `install_fault_plan`. When no plan is installed, the only cost on the
//! dispatch path is a single relaxed atomic load — no locks, no
//! allocation (an acceptance requirement: production benchmarks must not
//! pay for the testing facility).
//!
//! Probabilistic rules draw from a seeded RNG, so a given plan produces
//! a *deterministic* fault sequence for a deterministic call sequence —
//! which is what lets `evostore-sim` replay failure scenarios.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use evostore_obs::counter_set;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fabric::EndpointId;

/// What happens to a call selected by a [`FaultRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Reject at dispatch with [`RpcError::Unavailable`](crate::fabric::RpcError::Unavailable)
    /// — the request never reaches the endpoint.
    Unavailable,
    /// Fail at dispatch with [`RpcError::Timeout`](crate::fabric::RpcError::Timeout)
    /// — models a request lost before delivery.
    Timeout,
    /// Deliver normally, but the service thread sleeps this long first —
    /// models a slow/overloaded provider. A delayed call goes through the
    /// service queue even when its method is on the caller lane, so the
    /// sleep never runs on the caller. Deadline-aware callers surface
    /// this as `Timeout` when the delay exceeds their budget.
    Delay(Duration),
    /// Deliver and execute the handler, but never send the reply —
    /// models a response lost on the wire *after* the side effect
    /// happened. Deadline-aware callers observe `Timeout`; the handler's
    /// effect (e.g. a refcount decrement) still took place. Requires
    /// deadline-aware callers: a plain `Fabric::call` on a dropped leg
    /// blocks until the fault plan is cleared or replaced (the parked
    /// reply sender is then released and the call fails `Disconnected`).
    DropReply,
}

/// When a rule applies, counted over the calls *matching* the rule's
/// endpoint/method filters (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindow {
    /// Every matching call.
    Always,
    /// Only the first `n` matching calls.
    FirstN(u64),
    /// Every matching call from index `from` (inclusive) to `until`
    /// (exclusive); `until = u64::MAX` means "forever after".
    Between(u64, u64),
}

impl FaultWindow {
    fn contains(&self, index: u64) -> bool {
        match *self {
            FaultWindow::Always => true,
            FaultWindow::FirstN(n) => index < n,
            FaultWindow::Between(from, until) => index >= from && index < until,
        }
    }
}

/// One injection rule: filters (endpoint, method), a firing window over
/// matching calls, a probability, and the action taken when it fires.
///
/// Built fluently:
///
/// ```ignore
/// FaultRule::new(FaultAction::Timeout)
///     .on_endpoint(provider)
///     .on_method("QUERY_BEST_ANCESTOR")
///     .first(2)               // only the first two matching calls
///     .with_probability(1.0)
/// ```
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Restrict to this endpoint (`None` = any).
    pub endpoint: Option<EndpointId>,
    /// Restrict to this method (`None` = any).
    pub method: Option<String>,
    /// What to do when the rule fires.
    pub action: FaultAction,
    /// Chance a matching, in-window call actually fires ∈ [0, 1].
    pub probability: f64,
    /// Which matching calls are eligible.
    pub window: FaultWindow,
}

impl FaultRule {
    /// A rule matching every call everywhere, firing always.
    pub fn new(action: FaultAction) -> FaultRule {
        FaultRule {
            endpoint: None,
            method: None,
            action,
            probability: 1.0,
            window: FaultWindow::Always,
        }
    }

    /// Restrict to calls targeting `ep`.
    pub fn on_endpoint(mut self, ep: EndpointId) -> FaultRule {
        self.endpoint = Some(ep);
        self
    }

    /// Restrict to calls of `method`.
    pub fn on_method(mut self, method: &str) -> FaultRule {
        self.method = Some(method.to_string());
        self
    }

    /// Fire with probability `p` (clamped to [0, 1]).
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Fire only on the first `n` matching calls.
    pub fn first(mut self, n: u64) -> FaultRule {
        self.window = FaultWindow::FirstN(n);
        self
    }

    /// Fire only from the `from`-th matching call on.
    pub fn after(mut self, from: u64) -> FaultRule {
        self.window = FaultWindow::Between(from, u64::MAX);
        self
    }

    /// Fire on matching calls in `[from, until)`.
    pub fn between(mut self, from: u64, until: u64) -> FaultRule {
        self.window = FaultWindow::Between(from, until);
        self
    }

    fn matches(&self, ep: EndpointId, method: &str) -> bool {
        self.endpoint.is_none_or(|e| e == ep) && self.method.as_deref().is_none_or(|m| m == method)
    }
}

counter_set! {
    /// What a plan has injected so far, bumped as it decides.
    struct FaultCounters;
    /// Counters for what a plan actually injected — lets tests assert the
    /// scenario they scripted really happened.
    #[derive(Copy, Eq)]
    pub struct FaultStats {
        /// Calls rejected `Unavailable` (rule or down endpoint).
        unavailable: atomic sum hidden,
        /// Calls failed `Timeout` at dispatch.
        timeouts: atomic sum hidden,
        /// Calls whose service was delayed.
        delays: atomic sum hidden,
        /// Replies dropped after the handler ran.
        dropped_replies: atomic sum hidden,
        /// Bulk reads rejected because the owning endpoint was down.
        bulk_rejections: atomic sum hidden,
    }
}

/// A complete fault scenario: an ordered rule list plus a dynamic
/// down-endpoint set. Install with
/// [`Fabric::install_fault_plan`](crate::fabric::Fabric::install_fault_plan);
/// the fabric consults it on every dispatch and bulk read while
/// installed. Rules are evaluated in insertion order; the first one that
/// fires wins.
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Per-rule count of *matching* calls (drives the windows).
    seen: Vec<AtomicU64>,
    down: RwLock<HashSet<EndpointId>>,
    rng: Mutex<StdRng>,
    injected: FaultCounters,
}

impl FaultPlan {
    /// An empty plan (no rules, nothing down). `seed` fixes the RNG
    /// stream used by probabilistic rules, making the injected fault
    /// sequence reproducible.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            seen: Vec::new(),
            down: RwLock::new(HashSet::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            injected: FaultCounters::new(),
        }
    }

    /// Append a rule (builder-style; call before installing).
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self.seen.push(AtomicU64::new(0));
        self
    }

    /// Mark an endpoint down: dispatch to it fails `Unavailable`, and
    /// bulk regions it owns become unreadable.
    pub fn set_down(&self, ep: EndpointId) {
        self.down.write().insert(ep);
    }

    /// Bring an endpoint back up.
    pub fn set_up(&self, ep: EndpointId) {
        self.down.write().remove(&ep);
    }

    /// Is `ep` currently marked down?
    pub fn is_down(&self, ep: EndpointId) -> bool {
        self.down.read().contains(&ep)
    }

    /// Snapshot of what has been injected so far.
    pub fn stats(&self) -> FaultStats {
        self.injected.snapshot()
    }

    /// Decide the fate of a dispatch to `ep.method`. Called by the
    /// fabric only while a plan is installed.
    pub(crate) fn decide(&self, ep: EndpointId, method: &str) -> Option<FaultAction> {
        if self.is_down(ep) {
            self.injected.unavailable.add(1);
            return Some(FaultAction::Unavailable);
        }
        for (rule, seen) in self.rules.iter().zip(&self.seen) {
            if !rule.matches(ep, method) {
                continue;
            }
            let index = seen.fetch_add(1, Ordering::Relaxed);
            if !rule.window.contains(index) {
                continue;
            }
            if rule.probability < 1.0 && !self.rng.lock().random_bool(rule.probability) {
                continue;
            }
            match rule.action {
                FaultAction::Unavailable => &self.injected.unavailable,
                FaultAction::Timeout => &self.injected.timeouts,
                FaultAction::Delay(_) => &self.injected.delays,
                FaultAction::DropReply => &self.injected.dropped_replies,
            }
            .add(1);
            return Some(rule.action.clone());
        }
        None
    }

    /// Should a bulk read of a region owned by `owner` be rejected?
    pub(crate) fn rejects_bulk(&self, owner: EndpointId) -> bool {
        let down = self.is_down(owner);
        if down {
            self.injected.bulk_rejections.add(1);
        }
        down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EP: EndpointId = EndpointId(3);

    #[test]
    fn rule_filters_and_windows() {
        let plan = FaultPlan::new(1).rule(
            FaultRule::new(FaultAction::Timeout)
                .on_endpoint(EP)
                .on_method("m")
                .first(2),
        );
        // Wrong endpoint / method: no match, window not consumed.
        assert_eq!(plan.decide(EndpointId(9), "m"), None);
        assert_eq!(plan.decide(EP, "other"), None);
        // First two matching calls fire, third passes.
        assert_eq!(plan.decide(EP, "m"), Some(FaultAction::Timeout));
        assert_eq!(plan.decide(EP, "m"), Some(FaultAction::Timeout));
        assert_eq!(plan.decide(EP, "m"), None);
        assert_eq!(plan.stats().timeouts, 2);
    }

    #[test]
    fn down_up_toggles() {
        let plan = FaultPlan::new(1);
        assert_eq!(plan.decide(EP, "m"), None);
        plan.set_down(EP);
        assert_eq!(plan.decide(EP, "m"), Some(FaultAction::Unavailable));
        assert!(plan.rejects_bulk(EP));
        plan.set_up(EP);
        assert_eq!(plan.decide(EP, "m"), None);
        assert!(!plan.rejects_bulk(EP));
    }

    #[test]
    fn probabilistic_rules_are_seed_deterministic() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed)
                .rule(FaultRule::new(FaultAction::Unavailable).with_probability(0.5));
            (0..64).map(|_| plan.decide(EP, "m").is_some()).collect()
        };
        let a = fire_pattern(42);
        let b = fire_pattern(42);
        let c = fire_pattern(43);
        assert_eq!(a, b, "same seed must inject the same fault sequence");
        assert_ne!(a, c, "different seeds should differ");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn first_firing_rule_wins() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::new(FaultAction::Delay(Duration::from_millis(5))).on_method("slow"))
            .rule(FaultRule::new(FaultAction::Timeout));
        assert_eq!(
            plan.decide(EP, "slow"),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.decide(EP, "fast"), Some(FaultAction::Timeout));
    }
}
