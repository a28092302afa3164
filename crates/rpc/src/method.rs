//! RPC methods declared once.
//!
//! A [`Method`] marker binds a wire name to its request and reply types.
//! Everything that used to repeat the pairing by hand derives from the
//! marker instead: [`Endpoint::serve`] registers a typed handler under
//! the marker's name, and the [`resilient`](crate::resilient) call
//! shapes take the marker so the method string and the reply type are
//! inferred — a request cannot be sent to the wrong method or decoded as
//! the wrong reply. Markers are declared in tables with
//! [`rpc_methods!`](crate::rpc_methods); a line ending in
//! `, lane = Caller` puts its method on the [`Lane::Caller`], and the
//! registration takes the lane from the marker.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::codec::typed_handler;
use crate::fabric::{Endpoint, Lane};

/// One RPC: its wire name and the types that travel under it.
///
/// Keyed by marker rather than by request type because two methods may
/// share a request/reply pair (refcount increments and decrements do).
pub trait Method: 'static {
    /// The method name on the wire (also the name of its attempt and
    /// handler spans).
    const METHOD: &'static str;
    /// What the caller sends.
    type Request: Serialize + DeserializeOwned;
    /// What the handler answers.
    type Reply: Serialize + DeserializeOwned;
    /// Where the handler runs: the target's service queue unless the
    /// method's table line says otherwise.
    const LANE: Lane = Lane::Queue;
}

/// Declare a table of [`Method`] markers: one unit struct per line,
/// `Name = "wire.name": Request => Reply;` (or
/// `... => Reply, lane = Caller;` for a [`Lane::Caller`] method), plus
/// `ALL`, the wire names in declaration order.
#[macro_export]
macro_rules! rpc_methods {
    ($( $(#[$doc:meta])* $name:ident = $wire:literal : $req:ty => $reply:ty $(, lane = $lane:ident)?; )+) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy)]
            pub struct $name;

            impl $crate::Method for $name {
                const METHOD: &'static str = $wire;
                type Request = $req;
                type Reply = $reply;
                $(const LANE: $crate::Lane = $crate::Lane::$lane;)?
            }
        )+

        /// Wire name of every method declared in this table, in
        /// declaration order.
        #[allow(dead_code)]
        pub const ALL: &[&str] = &[$(<$name as $crate::Method>::METHOD),+];
    };
}

impl Endpoint {
    /// Register `handler` under `M`'s wire name and on `M`'s lane: decode
    /// the request, run the handler, encode the reply.
    pub fn serve<M, F>(&self, _method: M, handler: F)
    where
        M: Method,
        F: Fn(M::Request) -> Result<M::Reply, String> + Send + Sync + 'static,
    {
        self.register_on(M::METHOD, M::LANE, typed_handler(handler));
    }

    /// Register a handler of `M`'s raw bytes under its wire name and on
    /// its lane — for a handler that answers with pre-encoded bytes.
    pub fn serve_bytes<M, F>(&self, _method: M, handler: F)
    where
        M: Method,
        F: Fn(Bytes) -> Result<Bytes, String> + Send + Sync + 'static,
    {
        self.register_on(M::METHOD, M::LANE, handler);
    }
}
