//! H5Lite: an HDF5-style hierarchical serialization format.
//!
//! The HDF5+PFS baseline (§5.2) serializes whole models through Keras's
//! HDF5 writer. H5Lite reproduces that code path from scratch: a
//! hierarchical container of groups, attributes and datasets with
//! per-object headers and checksums — i.e. the same *structural* costs
//! (every store serializes the full tree; readers parse the full tree;
//! there is no partial access).
//!
//! ```text
//! file    := magic("H5LT") u32 | version u32 | root-object
//! object  := kind u8 (0=group, 1=dataset)
//!            | name (len-prefixed utf8)
//!            | attr-count u32 | attr* (key,value len-prefixed utf8)
//!            | group:   child-count u32 | object*
//!            | dataset: dtype u8 | rank u8 | dims u64* | payload-len u64
//!                       | payload | crc u64
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use evostore_tensor::{checksum64, DType, TensorData};

const MAGIC: u32 = 0x4835_4C54; // "H5LT"
const VERSION: u32 = 1;

/// A node in an H5Lite file.
#[derive(Debug, Clone, PartialEq)]
pub enum H5Node {
    /// A group: named container of attributes and children.
    Group {
        /// Group name.
        name: String,
        /// String attributes (Keras stores configs this way).
        attrs: Vec<(String, String)>,
        /// Child objects, in order.
        children: Vec<H5Node>,
    },
    /// A dataset: named tensor payload.
    Dataset {
        /// Dataset name.
        name: String,
        /// String attributes.
        attrs: Vec<(String, String)>,
        /// The tensor.
        data: TensorData,
    },
}

impl H5Node {
    /// Create an empty group.
    pub fn group(name: impl Into<String>) -> H5Node {
        H5Node::Group {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        match self {
            H5Node::Group { name, .. } | H5Node::Dataset { name, .. } => name,
        }
    }

    /// Add a child to a group. Panics on datasets (caller bug).
    pub fn push_child(&mut self, child: H5Node) {
        match self {
            H5Node::Group { children, .. } => children.push(child),
            H5Node::Dataset { .. } => panic!("cannot add children to a dataset"),
        }
    }

    /// Add an attribute.
    pub fn push_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        match self {
            H5Node::Group { attrs, .. } | H5Node::Dataset { attrs, .. } => {
                attrs.push((key.into(), value.into()))
            }
        }
    }

    /// Find a direct child group/dataset by name.
    pub fn child(&self, name: &str) -> Option<&H5Node> {
        match self {
            H5Node::Group { children, .. } => children.iter().find(|c| c.name() == name),
            H5Node::Dataset { .. } => None,
        }
    }

    /// Iterate datasets recursively (depth-first), yielding
    /// `(path, tensor)` with `/`-joined paths.
    pub fn datasets(&self) -> Vec<(String, &TensorData)> {
        let mut out = Vec::new();
        fn walk<'a>(node: &'a H5Node, prefix: &str, out: &mut Vec<(String, &'a TensorData)>) {
            let path = if prefix.is_empty() {
                node.name().to_string()
            } else {
                format!("{prefix}/{}", node.name())
            };
            match node {
                H5Node::Group { children, .. } => {
                    for c in children {
                        walk(c, &path, out);
                    }
                }
                H5Node::Dataset { data, .. } => out.push((path, data)),
            }
        }
        walk(self, "", &mut out);
        out
    }

    /// Total tensor payload bytes in this subtree.
    pub fn payload_bytes(&self) -> usize {
        match self {
            H5Node::Group { children, .. } => children.iter().map(H5Node::payload_bytes).sum(),
            H5Node::Dataset { data, .. } => data.byte_len(),
        }
    }
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H5Error {
    /// Not an H5Lite file.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Structure truncated or malformed.
    Malformed(String),
    /// Dataset payload checksum failed.
    Corrupt(String),
}

impl std::fmt::Display for H5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H5Error::BadMagic => write!(f, "not an H5Lite file"),
            H5Error::BadVersion(v) => write!(f, "unsupported H5Lite version {v}"),
            H5Error::Malformed(m) => write!(f, "malformed H5Lite file: {m}"),
            H5Error::Corrupt(m) => write!(f, "corrupt H5Lite dataset: {m}"),
        }
    }
}

impl std::error::Error for H5Error {}

/// Serialize a tree into a file image.
pub fn write_file(root: &H5Node) -> Bytes {
    let mut buf = BytesMut::with_capacity(root.payload_bytes() + 4096);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    write_node(&mut buf, root);
    buf.freeze()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn write_node(buf: &mut BytesMut, node: &H5Node) {
    match node {
        H5Node::Group {
            name,
            attrs,
            children,
        } => {
            buf.put_u8(0);
            put_str(buf, name);
            buf.put_u32_le(attrs.len() as u32);
            for (k, v) in attrs {
                put_str(buf, k);
                put_str(buf, v);
            }
            buf.put_u32_le(children.len() as u32);
            for c in children {
                write_node(buf, c);
            }
        }
        H5Node::Dataset { name, attrs, data } => {
            buf.put_u8(1);
            put_str(buf, name);
            buf.put_u32_le(attrs.len() as u32);
            for (k, v) in attrs {
                put_str(buf, k);
                put_str(buf, v);
            }
            buf.put_u8(data.dtype().tag());
            buf.put_u8(data.shape().len() as u8);
            for &d in data.shape() {
                buf.put_u64_le(d as u64);
            }
            buf.put_u64_le(data.byte_len() as u64);
            buf.put_slice(data.bytes());
            buf.put_u64_le(checksum64(data.bytes()));
        }
    }
}

/// Parse a file image.
pub fn read_file(mut data: Bytes) -> Result<H5Node, H5Error> {
    if data.len() < 8 {
        return Err(H5Error::Malformed("short superblock".into()));
    }
    if data.get_u32_le() != MAGIC {
        return Err(H5Error::BadMagic);
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(H5Error::BadVersion(version));
    }
    read_node(&mut data)
}

fn get_str(data: &mut Bytes) -> Result<String, H5Error> {
    if data.len() < 4 {
        return Err(H5Error::Malformed("short string length".into()));
    }
    let len = data.get_u32_le() as usize;
    if data.len() < len {
        return Err(H5Error::Malformed("short string".into()));
    }
    let raw = data.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| H5Error::Malformed("invalid utf8".into()))
}

fn read_node(data: &mut Bytes) -> Result<H5Node, H5Error> {
    if data.is_empty() {
        return Err(H5Error::Malformed("truncated object".into()));
    }
    let kind = data.get_u8();
    let name = get_str(data)?;
    if data.len() < 4 {
        return Err(H5Error::Malformed("short attr count".into()));
    }
    let nattrs = data.get_u32_le() as usize;
    let mut attrs = Vec::with_capacity(nattrs.min(1024));
    for _ in 0..nattrs {
        let k = get_str(data)?;
        let v = get_str(data)?;
        attrs.push((k, v));
    }
    match kind {
        0 => {
            if data.len() < 4 {
                return Err(H5Error::Malformed("short child count".into()));
            }
            let nchildren = data.get_u32_le() as usize;
            let mut children = Vec::with_capacity(nchildren.min(4096));
            for _ in 0..nchildren {
                children.push(read_node(data)?);
            }
            Ok(H5Node::Group {
                name,
                attrs,
                children,
            })
        }
        1 => {
            if data.len() < 2 {
                return Err(H5Error::Malformed("short dataset header".into()));
            }
            let dtag = data.get_u8();
            let dtype =
                DType::from_tag(dtag).ok_or(H5Error::Malformed(format!("bad dtype {dtag}")))?;
            let rank = data.get_u8() as usize;
            if data.len() < rank * 8 + 8 {
                return Err(H5Error::Malformed("short dims".into()));
            }
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(data.get_u64_le() as usize);
            }
            let len = data.get_u64_le() as usize;
            if data.len() < len + 8 {
                return Err(H5Error::Malformed("short payload".into()));
            }
            let payload = data.split_to(len);
            let crc = data.get_u64_le();
            if checksum64(&payload) != crc {
                return Err(H5Error::Corrupt(name));
            }
            let tensor = TensorData::from_bytes(dtype, shape, payload)
                .ok_or_else(|| H5Error::Malformed(format!("dataset {name}: shape/len mismatch")))?;
            Ok(H5Node::Dataset {
                name,
                attrs,
                data: tensor,
            })
        }
        k => Err(H5Error::Malformed(format!("unknown object kind {k}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_tree() -> H5Node {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut root = H5Node::group("model");
        root.push_attr("format", "h5lite");
        let mut weights = H5Node::group("model_weights");
        for i in 0..3 {
            let mut layer = H5Node::group(format!("dense_{i}"));
            layer.push_child(H5Node::Dataset {
                name: "kernel".into(),
                attrs: vec![("trainable".into(), "true".into())],
                data: TensorData::random(&mut rng, DType::F32, vec![4, 8]),
            });
            layer.push_child(H5Node::Dataset {
                name: "bias".into(),
                attrs: vec![],
                data: TensorData::random(&mut rng, DType::F32, vec![8]),
            });
            weights.push_child(layer);
        }
        root.push_child(weights);
        root
    }

    #[test]
    fn roundtrip() {
        let tree = sample_tree();
        let img = write_file(&tree);
        let back = read_file(img).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn datasets_walk_yields_paths() {
        let tree = sample_tree();
        let ds = tree.datasets();
        assert_eq!(ds.len(), 6);
        assert!(ds
            .iter()
            .any(|(p, _)| p == "model/model_weights/dense_0/kernel"));
    }

    #[test]
    fn payload_bytes_counts_tensors_only() {
        let tree = sample_tree();
        assert_eq!(tree.payload_bytes(), 3 * (4 * 8 + 8) * 4);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut img = write_file(&sample_tree()).to_vec();
        img[0] ^= 0xFF;
        assert_eq!(read_file(Bytes::from(img)), Err(H5Error::BadMagic));
    }

    #[test]
    fn payload_corruption_detected() {
        let img = write_file(&sample_tree()).to_vec();
        // Flip a byte deep in the file (inside some tensor payload).
        let mut bad = img.clone();
        let pos = img.len() / 2;
        bad[pos] ^= 0x01;
        match read_file(Bytes::from(bad)) {
            Err(_) => {}
            Ok(t) => assert_ne!(t, sample_tree(), "corruption silently ignored"),
        }
    }

    #[test]
    fn truncation_rejected() {
        let img = write_file(&sample_tree());
        for frac in [1usize, 3, 7] {
            let cut = img.len() * frac / 8;
            assert!(read_file(img.slice(..cut)).is_err());
        }
    }

    #[test]
    fn child_lookup() {
        let tree = sample_tree();
        let w = tree.child("model_weights").unwrap();
        assert!(w.child("dense_1").is_some());
        assert!(w.child("dense_9").is_none());
    }

    #[test]
    #[should_panic(expected = "cannot add children")]
    fn dataset_cannot_have_children() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut d = H5Node::Dataset {
            name: "x".into(),
            attrs: vec![],
            data: TensorData::random(&mut rng, DType::F32, vec![1]),
        };
        d.push_child(H5Node::group("oops"));
    }
}
