//! Typed control-plane messages over the byte-level RPC.
//!
//! Control messages (queries, owner maps, retire requests) are JSON —
//! small, debuggable, and matching the paper's JSON-serialized metadata
//! (§5.5). The *data plane* (tensor payloads) never goes through this
//! codec: it moves via bulk regions or hand-framed binary bodies.
//!
//! The codec streams: a derived message writes its JSON straight into
//! the output buffer and reads it back through one pull parser that
//! borrows keys and plain strings from the body, with no tree in
//! between. A small op's encode + decode is therefore a few microseconds,
//! not most of the op. A request body nested more than 128 deep is a
//! decode error, so no body can exhaust a service thread's stack.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::fabric::RpcError;

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

/// Wrap a typed handler into the byte-level [`crate::fabric::Handler`]
/// signature.
pub(crate) fn typed_handler<Req, Resp, F>(f: F) -> impl Fn(Bytes) -> Result<Bytes, String>
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
    use crate::Method;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    pub struct Query {
        id: u64,
        tags: Vec<String>,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    pub struct Answer {
        score: f64,
    }

    crate::rpc_methods! {
        /// Answers with a score.
        Score = "test.score": Query => Answer;
        /// Served by a handler that answers with bytes that are not JSON.
        Junk = "test.junk": Query => Answer;
    }

    fn call<M: crate::Method>(
        fabric: &Fabric,
        ep: &crate::Endpoint,
        m: M,
        req: &M::Request,
    ) -> Result<M::Reply, RpcError> {
        crate::unary(
            fabric,
            ep.id(),
            m,
            req,
            &crate::RetryPolicy::no_retry(),
            None,
            None,
        )
    }

    #[test]
    fn typed_roundtrip() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.serve(Score, |q: Query| {
            Ok(Answer {
                score: q.id as f64 + q.tags.len() as f64,
            })
        });
        let query = Query {
            id: 40,
            tags: vec!["a".into(), "b".into()],
        };
        let ans = call(&fabric, &ep, Score, &query).unwrap();
        assert_eq!(ans, Answer { score: 42.0 });
    }

    #[test]
    fn decode_failure_is_codec_error() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register(Junk::METHOD, |_| Ok(Bytes::from_static(b"not json")));
        let query = Query {
            id: 0,
            tags: vec![],
        };
        let r = call(&fabric, &ep, Junk, &query);
        assert!(matches!(r, Err(RpcError::Codec(_))));
    }

    #[test]
    fn handler_decode_failure_reported() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.serve(Score, |_q: Query| Ok(Answer { score: 0.0 }));
        let r = fabric.call(ep.id(), Score::METHOD, Bytes::from_static(b"garbage"));
        assert!(matches!(r, Err(RpcError::Handler(msg)) if msg.contains("decode")));
    }
}
