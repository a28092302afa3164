//! Chaos walkthrough: fault injection, degraded LCP queries, retry
//! policies, and eventually-consistent GC under provider loss — then the
//! same fault schedule replayed against a replicated deployment
//! (factor 2), where reads fail over and the answers stay complete.
//!
//! A deterministic fault schedule (seeded, from `evostore::sim`) is
//! replayed onto the live fabric while a client keeps querying and
//! retiring models — the run is reproducible from its seed alone.
//!
//! ```bash
//! cargo run --release --example chaos_resilience
//! ```

use std::collections::HashMap;
use std::time::Duration;

use evostore::core::{
    random_tensors, trained_tensors, Deployment, EvoError, EvoStoreClient, OwnerMap,
};
use evostore::graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore::rpc::{FaultPlan, RetryPolicy};
use evostore::sim::{FaultKind, FaultSchedule, FaultScheduleConfig, SimTime};
use evostore::tensor::ModelId;
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

/// Store a parent (provider 1) and a derived child (provider 2).
fn populate(client: &EvoStoreClient, n: usize) -> (ModelId, ModelId) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let pick = |want: usize| {
        (1..)
            .map(ModelId)
            .find(|m| m.provider_for(n) == want)
            .unwrap()
    };
    let (parent, child) = (pick(1), pick(2));
    let parent_g = seq(&[8, 16, 16, 4]);
    let child_g = seq(&[8, 16, 16, 5]);
    let tensors = random_tensors(parent, &parent_g, &mut rng);
    client
        .store_model(
            parent_g.clone(),
            OwnerMap::fresh(parent, &parent_g),
            None,
            0.8,
            &tensors,
        )
        .unwrap();
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();
    let meta = client.get_meta(parent).unwrap();
    let map = OwnerMap::derive(child, &child_g, &best.lcp, &meta.owner_map);
    let trained: HashMap<_, _> = trained_tensors(&child_g, &map, 42);
    client
        .store_model(child_g.clone(), map, Some(parent), 0.9, &trained)
        .unwrap();
    (parent, child)
}

/// Replay the seeded schedule against `dep`, querying at each step.
/// When `repair_on_recovery` is set, every recovery instant in the step
/// window triggers an anti-entropy pass (`Deployment::repair`), healing
/// replicas that returned stale. Returns (full, degraded, failed)
/// step counts.
fn replay(dep: &Deployment, schedule: &FaultSchedule, repair_on_recovery: bool) -> (u32, u32, u32) {
    let n = dep.provider_ids().len();
    let client = dep
        .client_builder()
        .retry_policy(
            RetryPolicy::default()
                .with_attempts(3)
                .with_timeout(Duration::from_secs(2)),
        )
        .min_quorum(2)
        .build();
    let (parent, child) = populate(&client, n);
    println!(
        "  stored {parent} (parent) and {child} (derived child), replication factor {}",
        dep.replication().factor
    );

    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    let recoveries = schedule.recovery_points();
    let probe = seq(&[8, 16, 16, 6]);
    let (mut full, mut degraded, mut failed) = (0u32, 0u32, 0u32);
    let mut t = SimTime::ZERO;
    for step in 1..=6 {
        let next = SimTime::from_secs(step as f64 * 20.0);
        let fabric_rec = dep.fabric().flight_recorder();
        for e in schedule.events_between(t, next) {
            let ep = dep.provider_ids()[e.endpoint];
            match e.kind {
                FaultKind::Down => {
                    plan.set_down(ep);
                    if let Some(rec) = &fabric_rec {
                        rec.note_down(ep.0);
                    }
                }
                FaultKind::Up => {
                    plan.set_up(ep);
                    if let Some(rec) = &fabric_rec {
                        rec.note_up(ep.0);
                    }
                }
            }
        }
        if repair_on_recovery && recoveries.iter().any(|&(at, _)| at > t && at <= next) {
            let report = dep.repair().unwrap();
            println!(
                "    repair after recovery: {} synced, {} refs adjusted, {} unreachable",
                report.models_synced,
                report.refs_adjusted,
                report.unreachable.len()
            );
        }
        t = next;
        let downs = schedule.active_downs(t);
        match client.query_best_ancestor(&probe) {
            Ok(d) if d.is_partial() => {
                degraded += 1;
                println!(
                    "  t={t}: {} down {:?} -> DEGRADED answer (best {:?}, unreachable {:?})",
                    downs.len(),
                    downs,
                    d.value.as_ref().map(|b| b.model),
                    d.unreachable
                );
            }
            Ok(d) => {
                full += 1;
                println!(
                    "  t={t}: {} down {:?} -> full answer (best {:?})",
                    downs.len(),
                    downs,
                    d.value.as_ref().map(|b| b.model)
                );
            }
            Err(EvoError::PartialFailure { failed: f }) => {
                failed += 1;
                println!(
                    "  t={t}: {} down {:?} -> below quorum, typed PartialFailure ({} unreachable)",
                    downs.len(),
                    downs,
                    f.len()
                );
            }
            Err(e) => println!("  t={t}: unexpected error: {e}"),
        }
    }

    // Eventually-consistent GC: retire the child while the parent's host
    // is down; the inherited decrements park, then flush on recovery.
    let parent_host = dep.provider_ids()[parent.provider_for(n)];
    plan.set_down(parent_host);
    if let Some(rec) = dep.fabric().flight_recorder() {
        rec.note_down(parent_host.0);
    }
    let outcome = client.retire_model(child).unwrap();
    println!(
        "  retired {child} with {parent_host:?} down: {} refs dropped, {} decrements parked",
        outcome.refs_dropped, outcome.refs_parked
    );
    plan.set_up(parent_host);
    if let Some(rec) = dep.fabric().flight_recorder() {
        rec.note_up(parent_host.0);
    }
    if repair_on_recovery {
        let report = dep.repair().unwrap();
        println!(
            "  repair on recovery: {} retirements applied, {} refs adjusted",
            report.retirements_applied, report.refs_adjusted
        );
    }
    let flushed = client.flush_pending_decrements().unwrap();
    dep.gc_audit().unwrap();
    println!("  host recovered: flushed {flushed} parked decrements, GC audit clean");
    println!("\n  client telemetry:\n{}", client.telemetry().report());

    // Postmortem: the merged flight recorders alone name the provider
    // and fault window behind every degraded answer and failover.
    println!("\n  flight postmortem (faults, failovers, degraded answers):");
    for line in dep.flight_dump().lines() {
        if ["DOWN ", "UP ", "DEGRADED", "FAILOVER", "FAULT "]
            .iter()
            .any(|k| line.contains(k))
        {
            println!("  {line}");
        }
    }
    (full, degraded, failed)
}

fn main() {
    let n = 4;
    let schedule = FaultSchedule::generate(
        2024,
        &FaultScheduleConfig {
            endpoints: n,
            mean_uptime: 30.0,
            mean_downtime: 15.0,
            horizon: 120.0,
        },
    );
    println!(
        "fault schedule: seed 2024, {} events, {} recoveries\n",
        schedule.events().len(),
        schedule.recovery_points().len()
    );

    println!("=== phase 1: unreplicated (factor 1) ===");
    let dep1 = Deployment::in_memory(n);
    let (f1, d1, p1) = replay(&dep1, &schedule, false);

    println!("\n=== phase 2: replicated (factor 2), same schedule ===");
    let dep2 = Deployment::in_memory_replicated(n, 2);
    let (f2, d2, p2) = replay(&dep2, &schedule, true);

    println!("\n=== summary (same faults, both phases) ===");
    println!("  factor 1: {f1} full answers, {d1} degraded, {p1} quorum failures");
    println!("  factor 2: {f2} full answers, {d2} degraded, {p2} quorum failures");
    println!("  replication turns single-provider loss into full answers: reads");
    println!("  fail over along the replica chain and repair re-converges state.");

    println!("\n=== unified metrics (prometheus text, excerpt) ===");
    for line in dep2.metrics_text().lines().filter(|l| {
        l.starts_with("evostore_client_rpc")
            || l.starts_with("evostore_client_read_failovers")
            || l.starts_with("evostore_kv_bytes")
            || l.starts_with("evostore_provider_models")
            || l.starts_with("evostore_obs_flight")
    }) {
        println!("  {line}");
    }
}
