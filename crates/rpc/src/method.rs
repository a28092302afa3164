//! RPC methods declared once.
//!
//! A [`Method`] marker binds a wire name to its request and reply types.
//! Everything that used to repeat the pairing by hand derives from the
//! marker instead: [`Endpoint::serve`] registers a typed handler under
//! the marker's name, and the [`resilient`](crate::resilient) call
//! shapes take the marker so the method string and the reply type are
//! inferred — a request cannot be sent to the wrong method or decoded as
//! the wrong reply. Markers are declared in tables with
//! [`rpc_methods!`](crate::rpc_methods).

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::codec::typed_handler;
use crate::fabric::Endpoint;

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
}

/// Declare a table of [`Method`] markers: one unit struct per line,
/// `Name = "wire.name": Request => Reply;`, plus `ALL`, the wire names
/// in declaration order.
#[macro_export]
macro_rules! rpc_methods {
    ($( $(#[$doc:meta])* $name:ident = $wire:literal : $req:ty => $reply:ty; )+) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy)]
            pub struct $name;

            impl $crate::Method for $name {
                const METHOD: &'static str = $wire;
                type Request = $req;
                type Reply = $reply;
            }
        )+

        /// Wire name of every method declared in this table, in
        /// declaration order.
        #[allow(dead_code)]
        pub const ALL: &[&str] = &[$(<$name as $crate::Method>::METHOD),+];
    };
}

impl Endpoint {
    /// Register `handler` under `M`'s wire name: decode the request,
    /// run the handler, encode the reply.
    pub fn serve<M, F>(&self, _method: M, handler: F)
    where
        M: Method,
        F: Fn(M::Request) -> Result<M::Reply, String> + Send + Sync + 'static,
    {
        self.register(M::METHOD, typed_handler(handler));
    }
}
