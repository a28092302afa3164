//! Quickstart: stand up a deployment, store a model, derive a child via
//! transfer learning, and watch deduplication and garbage collection do
//! their jobs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use evostore::core::{random_tensors, trained_tensors, Deployment, OwnerMap};
use evostore::graph::{flatten, Activation, Architecture, LayerConfig, LayerKind};
use evostore::tensor::ModelId;

fn mlp(name: &str, widths: &[u32]) -> Architecture {
    let mut a = Architecture::new(name);
    let mut prev = a.add_layer(LayerConfig::new(
        "input",
        LayerKind::Input {
            shape: vec![widths[0]],
        },
    ));
    let mut inf = widths[0];
    for (i, &w) in widths.iter().enumerate().skip(1) {
        prev = a.chain(
            prev,
            LayerConfig::new(
                format!("dense_{i}"),
                LayerKind::Dense {
                    in_features: inf,
                    units: w,
                    activation: Activation::ReLU,
                },
            ),
        );
        inf = w;
    }
    a
}

fn main() {
    // A deployment of 4 providers with in-memory tensor storage; each
    // provider is both a data and a metadata node.
    let dep = Deployment::in_memory(4);
    let client = dep.client();
    let mut rng = rand::rng();

    // 1. Store a freshly trained model.
    let base_graph = flatten(&mlp("base", &[64, 128, 128, 128, 10])).unwrap();
    let base_id = ModelId(1);
    let tensors = random_tensors(base_id, &base_graph, &mut rng);
    let full = client
        .store_model(
            base_graph.clone(),
            OwnerMap::fresh(base_id, &base_graph),
            None,
            0.87,
            &tensors,
        )
        .unwrap();
    println!(
        "stored base model: {} bytes, {} tensors",
        full.bytes_written, full.tensors_written
    );

    // 2. A new candidate shares the first layers. Ask the repository for
    //    the best transfer ancestor (LCP broadcast + reduce).
    let child_graph = flatten(&mlp("child", &[64, 128, 128, 128, 24])).unwrap();
    let best = client
        .query_best_ancestor(&child_graph)
        .unwrap()
        .into_inner()
        .unwrap();
    println!(
        "best ancestor: {} (quality {:.2}), shared prefix {}/{} layers",
        best.model,
        best.quality,
        best.lcp.len(),
        child_graph.len()
    );

    // 3. Fetch the frozen prefix, "train" the rest, store incrementally.
    let (meta, prefix_tensors) = client.fetch_prefix(&best).unwrap();
    println!(
        "transferred {} tensors from the ancestor",
        prefix_tensors.len()
    );
    let child_id = ModelId(2);
    let child_map = OwnerMap::derive(child_id, &child_graph, &best.lcp, &meta.owner_map);
    let new_tensors = trained_tensors(&child_graph, &child_map, 42);
    let inc = client
        .store_model(
            child_graph.clone(),
            child_map,
            Some(best.model),
            0.91,
            &new_tensors,
        )
        .unwrap();
    println!(
        "stored derived model incrementally: {} bytes ({:.0}% of a full write)",
        inc.bytes_written,
        100.0 * inc.bytes_written as f64 / full.bytes_written as f64
    );

    // 4. Deduplication is visible in the repository stats.
    let stats = client.stats().unwrap();
    println!(
        "repository: {} models, {} tensors, {:.2} MB data, {} B metadata",
        stats.models,
        stats.tensors,
        stats.tensor_bytes as f64 / 1e6,
        stats.metadata_bytes
    );

    // 5. Retire the base model: tensors inherited by the child survive.
    // The providers that drop its record send the decrements after the
    // reply; drain them to read what was reclaimed.
    let retired = client.retire_model(base_id).unwrap();
    dep.drain_decrements();
    let reclaimed = stats.tensors - client.stats().unwrap().tensors;
    println!(
        "retired base: {} refs dropped, {reclaimed} tensors reclaimed (shared ones survive)",
        retired.refs_dropped
    );
    let loaded = client.load_model(child_id).unwrap();
    println!(
        "child still loads completely: {} tensors via one owner map",
        loaded.tensors.len()
    );
    dep.gc_audit().expect("GC invariants hold");
    println!("GC audit passed");
}
