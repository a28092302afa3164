//! The method table is the contract: its wire names are exactly the 25
//! strings deployed peers speak, every entry is answered by whoever the
//! table says serves it, and nothing outside the table is.

use std::collections::HashSet;

use bytes::Bytes;
use evostore_core::{methods, CachingClient, Deployment, ModelWatcher, WatchConfig};
use evostore_deliver::SubscriptionFilter;
use evostore_rpc::RpcError;
use evostore_tensor::ModelId;

/// The wire names, spelled out so a rename is a visible diff here.
const WIRE_NAMES: [&str; 25] = [
    "evostore.store",
    "evostore.get_meta",
    "evostore.read",
    "evostore.incr_refs",
    "evostore.decr_refs",
    "evostore.lcp_batch",
    "evostore.match_pattern_batch",
    "evostore.read_range",
    "evostore.retire_meta",
    "evostore.store_optimizer",
    "evostore.load_optimizer",
    "evostore.stats",
    "evostore.digest",
    "evostore.sync_model",
    "evostore.sync_retire",
    "evostore.sync_refs",
    "evostore.obs_snapshot",
    "evostore.transfer_manifest",
    "evostore.have_chunks",
    "evostore.read_chunks",
    "evostore.sync_chunks",
    "deliver.subscribe",
    "deliver.unsubscribe",
    "deliver.event",
    "deliver.fetch",
];

/// The two entries subscribers serve; providers serve the rest.
const SUBSCRIBER_SIDE: [&str; 2] = ["deliver.event", "deliver.fetch"];

#[test]
fn wire_names_are_unique_and_unchanged() {
    assert_eq!(methods::ALL, WIRE_NAMES);
    let distinct: HashSet<&str> = methods::ALL.iter().copied().collect();
    assert_eq!(distinct.len(), WIRE_NAMES.len(), "a wire name is repeated");
}

#[test]
fn every_entry_is_served_and_nothing_else_is() {
    let dep = Deployment::in_memory(1);
    let provider = dep.provider_ids()[0];
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 1 << 20),
        SubscriptionFilter::NewVersionOf(ModelId(1)),
        WatchConfig::default(),
        None,
    )
    .unwrap();

    // A minimal body: handlers with required fields reject it at decode,
    // the parameterless ones answer — either way the method resolved.
    let minimal = Bytes::from_static(b"{}");
    for name in methods::ALL {
        let server = if SUBSCRIBER_SIDE.contains(name) {
            watcher.endpoint_id()
        } else {
            provider
        };
        let outcome = dep.fabric().call(server, name, minimal.clone());
        assert!(
            !matches!(outcome, Err(RpcError::NoSuchMethod(_))),
            "{name} is in the table but not served: {outcome:?}"
        );
    }

    // One query is a batch of one: no single-query method is served.
    for (server, name) in [
        (provider, "evostore.no_such_method"),
        (provider, "evostore.lcp"),
        (provider, "evostore.match_pattern"),
        (provider, "deliver.event"),
        (watcher.endpoint_id(), "evostore.stats"),
    ] {
        let outcome = dep.fabric().call(server, name, minimal.clone());
        assert!(
            matches!(outcome, Err(RpcError::NoSuchMethod(_))),
            "{name} on {server} should be unknown: {outcome:?}"
        );
    }
}
