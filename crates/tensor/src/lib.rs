//! Tensor substrate for the EvoStore model repository.
//!
//! Deep-learning models decompose into *leaf layers*, each of which owns a
//! small set of parameter tensors (weights, biases, running statistics, ...).
//! EvoStore stores, deduplicates and transfers models at exactly this
//! granularity, so this crate provides the primitives everything else builds
//! on:
//!
//! * [`DType`] / [`TensorData`] — typed, shape-carrying, cheaply-cloneable
//!   binary buffers (backed by [`bytes::Bytes`], so sharing a tensor between
//!   two models never copies the payload);
//! * [`ContentHash`] — a 128-bit structural content hash used to detect
//!   identical tensors and identical layer configurations, from two
//!   families ([`hash`]): a word-parallel lane hash for payload bytes,
//!   FNV-1a for short field-by-field signatures;
//! * [`ModelId`] / [`TensorKey`] — the identifiers the distributed repository
//!   uses for placement (static hashing of the model id) and for owner maps
//!   (`128` bits per leaf layer, as in the paper);
//! * wire (de)serialization with integrity checks ([`ser`]), contiguous
//!   or as a rope that borrows the tensor's payload ([`rope`]);
//! * [`ManifestEntry`] / [`pack`] — records laid end to end as one vectored
//!   bulk region plus the manifest addressing it ([`manifest`]).

pub mod delta;
pub mod dtype;
pub mod hash;
pub mod id;
pub mod manifest;
pub mod rope;
pub mod ser;
pub mod tensor;

pub use delta::{
    apply_delta, decode_delta, delta_header, delta_probe, delta_probe_segments, encode_delta,
    encode_delta_segments, is_delta, is_delta_segments, DeltaError, DeltaHeader, DELTA_MAGIC,
    DELTA_PROBE_LEN,
};
pub use dtype::DType;
pub use hash::{checksum64, checksum64_parts, fnv1a128, ContentHash, Fnv128};
pub use id::{ModelId, TensorKey, VertexId};
pub use manifest::{pack, ManifestEntry};
pub use ser::{
    payload_range, payload_range_segments, read_tensor, read_tensor_segments, validate_record,
    validate_segments, write_tensor, write_tensor_borrowed, write_tensor_segments, Record,
    SerError, BORROW_MIN_BYTES,
};
pub use tensor::TensorData;
