//! Typed control-plane messages over the byte-level RPC.
//!
//! Control messages (queries, owner maps, retire requests) are JSON —
//! small, debuggable, and matching the paper's JSON-serialized metadata
//! (§5.5). The *data plane* (tensor payloads) never goes through this
//! codec: it moves via bulk regions or hand-framed binary bodies.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::fabric::{EndpointId, Fabric, RpcError};

/// Encode a typed message.
pub fn encode<T: Serialize>(value: &T) -> Result<Bytes, RpcError> {
    serde_json::to_vec(value)
        .map(Bytes::from)
        .map_err(|e| RpcError::Codec(e.to_string()))
}

/// Decode a typed message.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, RpcError> {
    serde_json::from_slice(bytes).map_err(|e| RpcError::Codec(e.to_string()))
}

/// Typed two-sided RPC by method string — the raw, no-retry path kept
/// for callers outside the [`Method`](crate::method::Method) tables
/// (the Redis-substitute baseline): one attempt under
/// [`RetryPolicy::no_retry`](crate::resilient::RetryPolicy::no_retry)'s
/// generous 30 s deadline (so an injected reply loss surfaces as
/// [`RpcError::Timeout`] instead of hanging forever), no metrics.
pub fn call_typed<Req: Serialize, Resp: DeserializeOwned>(
    fabric: &Fabric,
    target: EndpointId,
    method: &str,
    req: &Req,
) -> Result<Resp, RpcError> {
    let policy = crate::resilient::RetryPolicy::no_retry();
    let reply = crate::resilient::call_with_retry(
        fabric,
        target,
        method,
        encode(req)?,
        &policy,
        None,
        None,
    )?;
    decode(&reply)
}

/// Wrap a typed handler into the byte-level [`crate::fabric::Handler`]
/// signature.
pub fn typed_handler<Req, Resp, F>(f: F) -> impl Fn(Bytes) -> Result<Bytes, String>
where
    Req: DeserializeOwned,
    Resp: Serialize,
    F: Fn(Req) -> Result<Resp, String>,
{
    move |body: Bytes| {
        let req: Req = serde_json::from_slice(&body).map_err(|e| format!("decode: {e}"))?;
        let resp = f(req)?;
        serde_json::to_vec(&resp)
            .map(Bytes::from)
            .map_err(|e| format!("encode: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Query {
        id: u64,
        tags: Vec<String>,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Answer {
        score: f64,
    }

    #[test]
    fn typed_roundtrip() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register(
            "score",
            typed_handler(|q: Query| {
                Ok(Answer {
                    score: q.id as f64 + q.tags.len() as f64,
                })
            }),
        );
        let ans: Answer = call_typed(
            &fabric,
            ep.id(),
            "score",
            &Query {
                id: 40,
                tags: vec!["a".into(), "b".into()],
            },
        )
        .unwrap();
        assert_eq!(ans, Answer { score: 42.0 });
    }

    #[test]
    fn decode_failure_is_codec_error() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("junk", |_| Ok(Bytes::from_static(b"not json")));
        let r: Result<Answer, RpcError> = call_typed(
            &fabric,
            ep.id(),
            "junk",
            &Query {
                id: 0,
                tags: vec![],
            },
        );
        assert!(matches!(r, Err(RpcError::Codec(_))));
    }

    #[test]
    fn handler_decode_failure_reported() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("q", typed_handler(|_q: Query| Ok(Answer { score: 0.0 })));
        let r = fabric.call(ep.id(), "q", Bytes::from_static(b"garbage"));
        assert!(matches!(r, Err(RpcError::Handler(msg)) if msg.contains("decode")));
    }
}
