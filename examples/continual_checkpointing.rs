//! Continual fine-tuning with incremental checkpoints — the "other
//! transfer learning scenarios" the paper's conclusion points at.
//!
//! One model is fine-tuned repeatedly (only its head layers change each
//! round). EvoStore stores each round as an increment; the HDF5-style
//! baseline re-serializes the full model every time. The example prints
//! the storage trajectory of both, plus what garbage collection recovers
//! when old checkpoints are pruned to a sliding window.
//!
//! ```text
//! cargo run --release --example continual_checkpointing
//! ```

use evostore::baseline::{h5lite, model_to_h5, SimulatedPfs};
use evostore::core::{random_tensors, trained_tensors, Deployment, OwnerMap};
use evostore::graph::{flatten, layered_model, lcp};
use evostore::tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let rounds = 12usize;
    let window = 4usize; // keep the last 4 checkpoints

    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let pfs = SimulatedPfs::new();
    let mut rng = ChaCha8Rng::seed_from_u64(9);

    // A 16-layer model; fine-tuning retrains the last 4 layers per round.
    let graph = flatten(&layered_model(8 << 20, 16)).unwrap();
    let retrain_from = graph.len() - 4;

    // Round 0: full checkpoint in both systems.
    let base = ModelId(0);
    let tensors = random_tensors(base, &graph, &mut rng);
    client
        .store_model(
            graph.clone(),
            OwnerMap::fresh(base, &graph),
            None,
            0.5,
            &tensors,
        )
        .unwrap();
    pfs.write(
        "/ckpt/round-0.h5",
        h5lite::write_file(&model_to_h5(base, &graph, &tensors, false)),
    );

    println!("round  evostore-MB  hdf5-MB  (window of {window} checkpoints)");
    let mut live: Vec<ModelId> = vec![base];
    let mut prev = base;
    for round in 1..=rounds {
        // EvoStore: derive from the previous round, upload only the head.
        let meta = client.get_meta(prev).unwrap();
        let mut r = lcp(&graph, &meta.graph);
        r.prefix.retain(|v| (v.0 as usize) < retrain_from);
        for v in retrain_from..graph.len() {
            r.match_in_ancestor[v] = None;
        }
        let id = ModelId(round as u64);
        let map = OwnerMap::derive(id, &graph, &r, &meta.owner_map);
        let new_tensors = trained_tensors(&graph, &map, round as u64);
        client
            .store_model(graph.clone(), map, Some(prev), 0.5, &new_tensors)
            .unwrap();
        live.push(id);
        prev = id;

        // Baseline: full serialization every round. To be generous to the
        // baseline we reuse the same payload sizes (contents don't matter
        // for storage accounting).
        let full = random_tensors(id, &graph, &mut rng);
        pfs.write(
            &format!("/ckpt/round-{round}.h5"),
            h5lite::write_file(&model_to_h5(id, &graph, &full, false)),
        );

        // Prune to the sliding window in both systems.
        while live.len() > window {
            let victim = live.remove(0);
            client.retire_model(victim).unwrap();
            let _ = pfs.delete(&format!("/ckpt/round-{}.h5", victim.0));
        }
        // Reclamation trails a retire by its providers' decrement round.
        dep.drain_decrements();

        let evo = client.stats().unwrap().tensor_bytes as f64 / 1e6;
        let hdf = pfs.total_bytes() as f64 / 1e6;
        println!("{round:>5}  {evo:>11.1}  {hdf:>7.1}");
    }

    let evo = client.stats().unwrap();
    println!();
    println!(
        "after {rounds} rounds: EvoStore holds {:.1} MB for {} checkpoints ({} tensors); \
         the full-file baseline holds {:.1} MB",
        evo.tensor_bytes as f64 / 1e6,
        window,
        evo.tensors,
        pfs.total_bytes() as f64 / 1e6
    );
    println!(
        "shared base layers exist once in EvoStore regardless of how many \
         checkpoints reference them; GC reclaims a head's tensors only when \
         the last referencing checkpoint leaves the window."
    );
    dep.gc_audit().expect("GC invariants hold");
}
