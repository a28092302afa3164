//! The record plane, end to end: every consumer of a `(manifest, bulk
//! region)` pair — `STORE`, `STORE_OPTIMIZER`, `SYNC_MODEL` raw and
//! materialized, the `READ` and `LOAD_OPTIMIZER` replies, a peer's
//! `deliver.fetch` reply — is driven with the same malformed manifests and
//! must answer each with a typed error, persist nothing and leak no
//! region; and optimizer state rides the plane as borrowed ropes.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use evostore_core::messages::{
    DigestRequest, GetMetaRequest, LoadOptimizerRequest, ManifestEntry, ModelMetaReply,
    ReadTensorsReply, StoreModelRequest, StoreOptimizerRequest, SyncModelRequest,
};
use evostore_core::watch::FetchSource;
use evostore_core::{
    methods, random_tensors, CachingClient, Deployment, EvoError, EvoStoreClient, ModelWatcher,
    OwnerMap, WatchConfig,
};
use evostore_deliver::{
    EventKind, EventPush, ModelEvent, PeerFetchReply, SubscribeReply, SubscriptionFilter,
    UnsubscribeReply,
};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_rpc::{unary, BulkHandle, Endpoint, Fabric, RetryPolicy, RpcError};
use evostore_tensor::{
    write_tensor, DType, ModelId, TensorData, TensorKey, VertexId, BORROW_MIN_BYTES,
};
use parking_lot::Mutex;
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

/// One `(manifest, region)` pair to feed a consumer, and whether it must
/// be accepted.
#[derive(Clone)]
struct Case {
    name: &'static str,
    manifest: Vec<ManifestEntry>,
    segments: Vec<Bytes>,
    valid: bool,
}

/// The table: two records under `keys`, laid out well (whole, and with the
/// first record split across two segments) and then broken five ways.
fn cases(keys: [TensorKey; 2], tensors: [&TensorData; 2]) -> Vec<Case> {
    let records = [write_tensor(tensors[0]), write_tensor(tensors[1])];
    let (l0, l1) = (records[0].len() as u64, records[1].len() as u64);
    let good = vec![
        ManifestEntry {
            key: keys[0],
            offset: 0,
            len: l0,
        },
        ManifestEntry {
            key: keys[1],
            offset: l0,
            len: l1,
        },
    ];
    let whole = records.to_vec();
    let second = |offset, len| {
        let mut manifest = good.clone();
        manifest[1] = ManifestEntry {
            key: keys[1],
            offset,
            len,
        };
        manifest
    };
    let mut flipped = records[1].to_vec();
    let at = flipped.len() - 9; // last payload byte: the check follows it
    flipped[at] ^= 0x40;
    vec![
        Case {
            name: "valid: a record split across a segment boundary",
            manifest: good.clone(),
            segments: vec![
                records[0].slice(..7),
                Bytes::new(),
                records[0].slice(7..),
                records[1].clone(),
            ],
            valid: true,
        },
        Case {
            name: "offset + len wraps u64",
            manifest: second(u64::MAX - 3, 8),
            segments: whole.clone(),
            valid: false,
        },
        Case {
            name: "one byte past the region",
            manifest: second(l0, l1 + 1),
            segments: whole.clone(),
            valid: false,
        },
        Case {
            name: "zero-length entry",
            manifest: second(l0, 0),
            segments: whole.clone(),
            valid: false,
        },
        Case {
            name: "entry straddling two records' segments",
            manifest: second(l0 - 4, l1),
            segments: whole.clone(),
            valid: false,
        },
        Case {
            name: "a flipped payload byte",
            manifest: good,
            segments: vec![records[0].clone(), Bytes::from(flipped)],
            valid: false,
        },
    ]
}

/// What persisting nothing means on a deployment: the catalog and the
/// hosted tensor set are what they were, and reference counts still add up.
fn fingerprint(dep: &Deployment) -> String {
    dep.gc_audit().unwrap();
    let state = &dep.provider_states()[0];
    let mut models: Vec<_> = state
        .handle_digest(DigestRequest {})
        .unwrap()
        .models
        .into_iter()
        .map(|m| (m.model, m.timestamp, m.optimizer_keys))
        .collect();
    models.sort();
    let mut hosted = state.hosted_tensor_keys();
    hosted.sort();
    format!("{models:?} {hosted:?}")
}

/// Drive one provider-side consumer through the table. `send` ships one
/// case (it exposes the region itself) to the deployment's only provider;
/// malformed cases come first, so the accepted one lands on a clean slate.
fn provider_consumer_rejects(
    dep: &Deployment,
    who: &str,
    mut table: Vec<Case>,
    send: impl Fn(&Case, u64) -> Result<(), RpcError>,
) {
    let fabric = dep.fabric();
    table.sort_by_key(|c| c.valid);
    for case in &table {
        let baseline = fabric.bulk_regions();
        let before = fingerprint(dep);
        let bulk = fabric.bulk_expose_vec(case.segments.clone());
        let outcome = send(case, bulk.0);
        fabric.bulk_release(bulk);
        assert_eq!(fabric.bulk_regions(), baseline, "{who}: {}", case.name);
        if case.valid {
            outcome.unwrap_or_else(|e| panic!("{who} refused '{}': {e}", case.name));
            assert_ne!(fingerprint(dep), before, "{who}: {}", case.name);
        } else {
            let err = outcome.expect_err(case.name);
            assert!(
                matches!(err, RpcError::Handler(_)),
                "{who}: '{}' must be a handler's typed refusal, got {err}",
                case.name
            );
            assert_eq!(fingerprint(dep), before, "{who}: {}", case.name);
        }
    }
}

/// `STORE`, `STORE_OPTIMIZER` and both legs of `SYNC_MODEL`: a handler's
/// refusal, nothing persisted.
fn providers_refuse_malformed_manifests_and_persist_nothing() {
    let dep = Deployment::in_memory(1);
    let fabric = Arc::clone(dep.fabric());
    let provider = dep.provider_ids()[0];
    let retry = RetryPolicy::no_retry();
    let g = seq(&[4, 6]);
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let table_for = |model: ModelId, rng: &mut ChaCha8Rng| {
        let tensors = random_tensors(model, &g, rng);
        let mut keys: Vec<TensorKey> = tensors.keys().copied().collect();
        keys.sort();
        assert_eq!(keys.len(), 2, "one dense layer: kernel + bias");
        cases([keys[0], keys[1]], [&tensors[&keys[0]], &tensors[&keys[1]]])
    };

    // STORE.
    let model = ModelId(1);
    provider_consumer_rejects(&dep, "STORE", table_for(model, &mut rng), |case, bulk| {
        let req = StoreModelRequest {
            model,
            graph: g.clone(),
            owner_map: OwnerMap::fresh(model, &g),
            parent: None,
            quality: 0.5,
            manifest: case.manifest.clone(),
            bulk,
            timestamp: None,
        };
        unary(&fabric, provider, methods::Store, &req, &retry, None, None).map(|_| ())
    });

    // STORE_OPTIMIZER, onto the model the accepted STORE left behind.
    let slot = |i| TensorKey::new(model, VertexId(u32::MAX), i);
    let moments = [
        TensorData::zeros(DType::F32, vec![5]),
        TensorData::zeros(DType::F32, vec![3, 2]),
    ];
    let table = cases([slot(0), slot(1)], [&moments[0], &moments[1]]);
    provider_consumer_rejects(&dep, "STORE_OPTIMIZER", table, |case, bulk| {
        let req = StoreOptimizerRequest {
            model,
            manifest: case.manifest.clone(),
            bulk,
        };
        unary(
            &fabric,
            provider,
            methods::StoreOptimizer,
            &req,
            &retry,
            None,
            None,
        )
        .map(|_| ())
    });

    // SYNC_MODEL, installing a model of its own.
    let synced = ModelId(2);
    let table = table_for(synced, &mut rng);
    provider_consumer_rejects(&dep, "SYNC_MODEL", table, |case, bulk| {
        let req = SyncModelRequest {
            model: synced,
            graph: g.clone(),
            owner_map: OwnerMap::fresh(synced, &g),
            parent: None,
            quality: 0.5,
            timestamp: 40,
            manifest: case.manifest.clone(),
            bulk,
        };
        let reply = unary(
            &fabric,
            provider,
            methods::SyncModel,
            &req,
            &retry,
            None,
            None,
        )?;
        assert!(reply.applied && reply.tensors_stored == 2, "SYNC_MODEL");
        Ok(())
    });
    // Everything the accepted cases installed reads back.
    let client = dep.client();
    for model in [1, 2] {
        assert_eq!(client.load_model(ModelId(model)).unwrap().tensors.len(), 2);
    }
    assert_eq!(client.load_optimizer_state(model).unwrap(), moments);
}

/// A stand-in provider: answers reads with whatever case is current, each
/// time exposing a fresh region the reader must withdraw.
struct StandIn {
    fabric: Arc<Fabric>,
    host: Endpoint,
    current: Arc<Mutex<Case>>,
}

impl StandIn {
    fn new(first: Case) -> StandIn {
        let fabric = Fabric::new();
        let host = fabric.create_endpoint(2);
        StandIn {
            fabric,
            host,
            current: Arc::new(Mutex::new(first)),
        }
    }

    /// A handler body: the current case as a read reply.
    fn reply(&self) -> impl Fn() -> ReadTensorsReply + Send + Sync + 'static {
        let (fabric, current) = (Arc::clone(&self.fabric), Arc::clone(&self.current));
        move || {
            let case = current.lock().clone();
            ReadTensorsReply {
                manifest: case.manifest,
                bulk: fabric.bulk_expose_vec(case.segments).0,
            }
        }
    }

    fn client(&self) -> EvoStoreClient {
        EvoStoreClient::builder(Arc::clone(&self.fabric))
            .providers(vec![self.host.id()])
            .build()
    }
}

/// The typed error a reader owes each malformed case: a manifest that
/// lies about the region is a protocol violation, a record that fails its
/// check is corrupt data under that key.
fn assert_reader_error(err: &EvoError, case: &Case, key: TensorKey) {
    let lies_about_the_region = case.name.contains("u64") || case.name.contains("past the region");
    match err {
        EvoError::Protocol(msg) if lies_about_the_region => {
            assert!(msg.contains("out of bulk bounds"), "'{}': {msg}", case.name)
        }
        EvoError::Corrupt { key: named } if !lies_about_the_region => {
            assert_eq!(*named, key.to_string(), "{}", case.name)
        }
        other => panic!("'{}' got the wrong error: {other}", case.name),
    }
    assert!(!err.is_transient(), "{}", case.name);
}

/// The `READ` and `LOAD_OPTIMIZER` replies: `Protocol` or `Corrupt`, and
/// the reply region withdrawn either way.
fn readers_refuse_malformed_read_replies_and_withdraw_the_region() {
    let model = ModelId(1);
    let keys = [
        TensorKey::new(model, VertexId(1), 0),
        TensorKey::new(model, VertexId(1), 1),
    ];
    let slots = [
        TensorKey::new(model, VertexId(u32::MAX), 0),
        TensorKey::new(model, VertexId(u32::MAX), 1),
    ];
    let tensors = [
        TensorData::zeros(DType::F32, vec![4, 6]),
        TensorData::zeros(DType::F32, vec![6]),
    ];
    let read_table = cases(keys, [&tensors[0], &tensors[1]]);
    let optimizer_table = cases(slots, [&tensors[0], &tensors[1]]);
    let stand_in = StandIn::new(read_table[0].clone());
    let reply = stand_in.reply();
    stand_in.host.serve(methods::Read, move |_| Ok(reply()));
    let reply = stand_in.reply();
    stand_in
        .host
        .serve(methods::LoadOptimizer, move |_: LoadOptimizerRequest| {
            Ok(reply())
        });
    let client = stand_in.client();

    for case in read_table {
        *stand_in.current.lock() = case.clone();
        let outcome = client.fetch_tensors(&keys);
        assert_eq!(stand_in.fabric.bulk_regions(), 0, "READ: {}", case.name);
        match outcome {
            Ok(fetched) => {
                assert!(case.valid, "READ accepted '{}'", case.name);
                assert_eq!(fetched[&keys[0]], tensors[0]);
                assert_eq!(fetched[&keys[1]], tensors[1]);
            }
            Err(e) => {
                assert!(!case.valid, "READ refused '{}': {e}", case.name);
                assert_reader_error(&e, &case, keys[1]);
            }
        }
    }
    for case in optimizer_table {
        *stand_in.current.lock() = case.clone();
        let outcome = client.load_optimizer_state(model);
        assert_eq!(
            stand_in.fabric.bulk_regions(),
            0,
            "LOAD_OPTIMIZER: {}",
            case.name
        );
        match outcome {
            Ok(moments) => {
                assert!(case.valid, "LOAD_OPTIMIZER accepted '{}'", case.name);
                assert_eq!(moments, tensors);
            }
            Err(e) => {
                assert!(!case.valid, "LOAD_OPTIMIZER refused '{}': {e}", case.name);
                assert_reader_error(&e, &case, slots[1]);
            }
        }
    }
}

/// A peer's `deliver.fetch` reply: the watcher gives up on the peer and
/// takes the release from the next hop of its fetch chain.
fn a_watcher_refuses_a_peers_malformed_manifest_and_walks_up_the_chain() {
    let model = ModelId(1);
    let g = seq(&[4, 6]);
    let owner_map = OwnerMap::fresh(model, &g);
    let all = owner_map.all_tensor_keys();
    let keys = [all[0], all[1]];
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let tensors = random_tensors(model, &g, &mut rng);
    let table = cases(keys, [&tensors[&keys[0]], &tensors[&keys[1]]]);

    // The provider: a stand-in that always serves the well-formed records,
    // so a watcher that gives up on its peer still lands the release.
    let provider = StandIn::new(table[0].clone());
    let host_id = provider.host.id().0;
    provider.host.serve(methods::Subscribe, move |_| {
        Ok(SubscribeReply {
            sub_id: 1,
            provider: host_id,
        })
    });
    provider.host.serve(methods::Unsubscribe, |_| {
        Ok(UnsubscribeReply { removed: true })
    });
    let meta = ModelMetaReply {
        graph: g.clone(),
        owner_map,
        parent: None,
        quality: 0.5,
        timestamp: 1,
    };
    provider
        .host
        .serve(methods::GetMeta, move |_: GetMetaRequest| Ok(meta.clone()));
    let reply = provider.reply();
    provider.host.serve(methods::Read, move |_| Ok(reply()));

    // The peer: serves whatever case is current out of one region per case,
    // which is the peer's to keep.
    let peer = provider.fabric.create_endpoint(1);
    let served: Arc<Mutex<(Case, u64)>> = Arc::new(Mutex::new((table[0].clone(), 0)));
    {
        let served = Arc::clone(&served);
        peer.serve(methods::PeerFetch, move |_| {
            let (case, bulk) = served.lock().clone();
            Ok(PeerFetchReply {
                ready: true,
                manifest: case.manifest,
                bulk,
            })
        });
    }

    let watcher = ModelWatcher::attach(
        CachingClient::new(provider.client(), 1 << 20),
        SubscriptionFilter::ArchPrefix(seq(&[4])),
        WatchConfig {
            serve_peers: false,
            ..WatchConfig::default()
        },
        None,
    )
    .unwrap();

    let fabric = &provider.fabric;
    for (seq_no, case) in table.into_iter().enumerate() {
        let bulk = fabric.bulk_expose_vec(case.segments.clone());
        *served.lock() = (case.clone(), bulk.0);
        let push = EventPush {
            sub_id: 1,
            provider: host_id,
            lost_from: None,
            events: vec![ModelEvent {
                seq: seq_no as u64,
                kind: EventKind::Stored,
                model,
                parent: None,
                quality: 0.5,
                timestamp: 1 + seq_no as u64,
                fetch_chain: vec![peer.id().0, host_id],
            }],
        };
        let policy = RetryPolicy::no_retry().with_timeout(Duration::from_secs(10));
        unary(
            fabric,
            watcher.endpoint_id(),
            methods::Event,
            &push,
            &policy,
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("'{}' failed the event push: {e}", case.name));
        // The peer's region is still the peer's; nothing else is left.
        assert_eq!(fabric.bulk_regions(), 1, "{}", case.name);
        assert!(fabric.bulk_release(bulk));
        let applied = watcher.applied();
        let source = applied.last().unwrap().source;
        let expect = match case.valid {
            true => FetchSource::Peer(peer.id().0),
            false => FetchSource::Provider,
        };
        assert_eq!(source, Some(expect), "{}", case.name);
        assert!(watcher.take_errors().is_empty(), "{}", case.name);
        // Whichever hop served it, the cache holds the true weights.
        let (cached, missing) = watcher.client().cache().get_batch(&keys);
        assert!(missing.is_empty(), "{}", case.name);
        for key in keys {
            assert_eq!(cached[&key], tensors[&key], "{}", case.name);
        }
    }
    assert_eq!(watcher.stats().peer_fetches, 1);
}

#[test]
fn every_consumer_refuses_the_same_malformed_manifests() {
    providers_refuse_malformed_manifests_and_persist_nothing();
    readers_refuse_malformed_read_replies_and_withdraw_the_region();
    a_watcher_refuses_a_peers_malformed_manifest_and_walks_up_the_chain();
}

/// Optimizer state rides the record plane: a moment of `BORROW_MIN_BYTES`
/// or more is pushed as a rope around the caller's buffer, stored as that
/// rope, and handed back in that very buffer — no copy anywhere. (It used
/// to be copied into a consolidation buffer on the way in and gathered on
/// the way out.)
#[test]
fn optimizer_state_borrows_the_callers_buffer() {
    let dep = Deployment::in_memory(1);
    let client = dep.client();
    let model = ModelId(1);
    let g = seq(&[4, 6]);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    client.store_fresh(model, &g, 0.5, &mut rng).unwrap();

    let moments = vec![
        TensorData::random(&mut rng, DType::F32, vec![BORROW_MIN_BYTES / 4]),
        TensorData::random(&mut rng, DType::F32, vec![16]),
    ];
    client.store_optimizer_state(model, &moments).unwrap();
    assert_eq!(dep.fabric().bulk_regions(), 0);

    // As stored: [head, the caller's payload buffer, check].
    let reply = unary(
        dep.fabric(),
        dep.provider_ids()[0],
        methods::LoadOptimizer,
        &LoadOptimizerRequest { model },
        &RetryPolicy::no_retry(),
        None,
        None,
    )
    .unwrap();
    let region = dep.fabric().bulk_take(BulkHandle(reply.bulk)).unwrap();
    assert!(region
        .segments()
        .iter()
        .any(|s| s.as_ptr() == moments[0].bytes().as_ptr() && s.len() == BORROW_MIN_BYTES));

    // As loaded: the same buffer for the large moment, equal bytes for both.
    let loaded = client.load_optimizer_state(model).unwrap();
    assert_eq!(loaded, moments);
    assert_eq!(loaded[0].bytes().as_ptr(), moments[0].bytes().as_ptr());
    assert_ne!(loaded[1].bytes().as_ptr(), moments[1].bytes().as_ptr());
    assert_eq!(dep.fabric().bulk_regions(), 0);
    dep.gc_audit().unwrap();
}

/// An optimizer load fails over on the whole read, not just the call: a
/// replica that answers `LOAD_OPTIMIZER` and then serves a corrupt record
/// (or loses the pull) is skipped like a `READ` replica would be, and the
/// failover is counted. Alone, the same replica is a typed `Corrupt`.
#[test]
fn optimizer_loads_fail_over_past_a_replica_that_answers_but_serves_corrupt_records() {
    let model = (1u64..)
        .map(ModelId)
        .find(|m| m.provider_for(2) == 0)
        .unwrap();
    let slots = [
        TensorKey::new(model, VertexId(u32::MAX), 0),
        TensorKey::new(model, VertexId(u32::MAX), 1),
    ];
    let moments = [
        TensorData::zeros(DType::F32, vec![4]),
        TensorData::zeros(DType::F32, vec![2, 2]),
    ];
    let table = cases(slots, [&moments[0], &moments[1]]);
    let flipped = table.last().unwrap().clone();
    assert!(!flipped.valid);

    let primary = StandIn::new(flipped);
    let reply = primary.reply();
    primary
        .host
        .serve(methods::LoadOptimizer, move |_: LoadOptimizerRequest| {
            Ok(reply())
        });
    let mirror = primary.fabric.create_endpoint(1);
    let good = StandIn {
        fabric: Arc::clone(&primary.fabric),
        host: mirror,
        current: Arc::new(Mutex::new(table[0].clone())),
    };
    let reply = good.reply();
    good.host
        .serve(methods::LoadOptimizer, move |_: LoadOptimizerRequest| {
            Ok(reply())
        });

    let alone = primary.client();
    let err = alone.load_optimizer_state(model).unwrap_err();
    assert!(matches!(err, EvoError::Corrupt { .. }), "got {err}");

    let client = EvoStoreClient::builder(Arc::clone(&primary.fabric))
        .providers(vec![primary.host.id(), good.host.id()])
        .replication(evostore_core::ReplicationPolicy::new(2))
        .build();
    assert_eq!(client.load_optimizer_state(model).unwrap(), moments);
    assert_eq!(client.telemetry().read_failovers(), 1);
    assert_eq!(primary.fabric.bulk_regions(), 0);
}
