//! Cluster cost models.
//!
//! Parameterized after the paper's testbed (§5.1): Polaris compute nodes
//! on a dual Slingshot-10 fabric, and a Lustre file system with 150 OSTs
//! and ~650 GB/s aggregate bandwidth. Absolute values are documented
//! defaults, not claims — every figure harness prints the model parameters
//! it ran with, and EXPERIMENTS.md compares *shapes*, not absolutes.

use serde::{Deserialize, Serialize};

/// Gigabyte in bytes (decimal, as in network specs).
pub const GB: f64 = 1_000_000_000.0;

/// Cost model of the RDMA fabric between compute nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricModel {
    /// One-way RPC/RDMA initiation latency, seconds (Mercury over
    /// libfabric verbs: single-digit microseconds).
    pub rpc_latency_s: f64,
    /// Injection bandwidth of one node's NIC, bytes/s (Slingshot 10:
    /// 100 Gb/s per port, dual-rail ≈ 25 GB/s; achievable ≈ 20 GB/s).
    pub nic_bw: f64,
    /// Worker processes (GPUs) per node sharing that NIC.
    pub workers_per_node: usize,
    /// Ingest bandwidth of one provider (memory copy + KV insert path),
    /// bytes/s — in practice the binding resource for concurrent stores,
    /// well below the NIC line rate.
    pub provider_ingest_bw: f64,
}

impl Default for FabricModel {
    fn default() -> Self {
        FabricModel {
            rpc_latency_s: 5e-6,
            nic_bw: 20.0 * GB,
            workers_per_node: 4,
            provider_ingest_bw: 5.0 * GB,
        }
    }
}

impl FabricModel {
    /// Time for one worker to push `bytes` to providers when `concurrent`
    /// workers share the same NIC (consolidated bulk RDMA write: one
    /// latency, then fair-shared bandwidth).
    pub fn bulk_time(&self, bytes: f64, concurrent: usize) -> f64 {
        let share = self.nic_bw / concurrent.max(1) as f64;
        self.rpc_latency_s + bytes / share
    }
}

/// Cost model of the parallel file system (Lustre).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PfsModel {
    /// Metadata-server latency per file operation (open/create/close),
    /// seconds. Lustre MDS round trips are ~1 ms, worse under load.
    pub metadata_latency_s: f64,
    /// Number of object storage targets.
    pub ost_count: usize,
    /// Aggregate data bandwidth across all OSTs, bytes/s.
    pub aggregate_bw: f64,
    /// Single-client streaming cap (one client cannot use every OST),
    /// bytes/s.
    pub per_client_bw: f64,
    /// CPU-side serialization overhead of the heavyweight format
    /// (HDF5: copy into host arrays + chunk/encode), seconds per byte.
    /// 3e-10 s/B ≈ 3.3 GB/s of serialization throughput.
    pub serialize_overhead_s_per_byte: f64,
}

impl Default for PfsModel {
    fn default() -> Self {
        PfsModel {
            metadata_latency_s: 2e-3,
            ost_count: 150,
            aggregate_bw: 650.0 * GB,
            per_client_bw: 1.5 * GB,
            serialize_overhead_s_per_byte: 3.0e-10,
        }
    }
}

impl PfsModel {
    /// Effective bandwidth one client sees with `concurrent` clients
    /// hitting the file system.
    pub fn client_bw(&self, concurrent: usize) -> f64 {
        let fair = self.aggregate_bw / concurrent.max(1) as f64;
        fair.min(self.per_client_bw)
    }

    /// Time to write one `bytes`-sized file from one of `concurrent`
    /// clients: serialization + metadata round trip + data transfer.
    pub fn file_write_time(&self, bytes: f64, concurrent: usize) -> f64 {
        self.serialize_overhead_s_per_byte * bytes
            + self.metadata_latency_s
            + bytes / self.client_bw(concurrent)
    }

    /// Time to read one `bytes`-sized file (deserialization costs the same
    /// copy overhead on the way in).
    pub fn file_read_time(&self, bytes: f64, concurrent: usize) -> f64 {
        self.file_write_time(bytes, concurrent)
    }
}

/// GPU training-speed model used by the NAS driver (Fig 6-9).
///
/// Training cost is dominated by per-parameter work: forward touches all
/// parameters, backward only the unfrozen ones (frozen layers are excluded
/// from the backward pass — the speedup transfer learning buys, §1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainModel {
    /// Seconds of forward work per parameter per epoch.
    pub forward_s_per_param: f64,
    /// Seconds of backward work per *trainable* parameter per epoch
    /// (backward ≈ 2x forward).
    pub backward_s_per_param: f64,
    /// Fixed per-task overhead (data pipeline spin-up, graph build), s.
    pub task_overhead_s: f64,
}

impl Default for TrainModel {
    fn default() -> Self {
        TrainModel {
            forward_s_per_param: 4.0e-9,
            backward_s_per_param: 8.0e-9,
            task_overhead_s: 2.0,
        }
    }
}

impl TrainModel {
    /// One-epoch training time for a model of `params` parameters of
    /// which `frozen` are frozen.
    pub fn epoch_time(&self, params: usize, frozen: usize) -> f64 {
        let trainable = params.saturating_sub(frozen);
        self.task_overhead_s
            + self.forward_s_per_param * params as f64
            + self.backward_s_per_param * trainable as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_bulk_scales_with_sharing() {
        let f = FabricModel::default();
        let alone = f.bulk_time(1.0 * GB, 1);
        let shared = f.bulk_time(1.0 * GB, 4);
        assert!(shared > 3.5 * alone && shared < 4.5 * alone);
    }

    #[test]
    fn pfs_per_client_cap_binds_at_low_concurrency() {
        let p = PfsModel::default();
        assert!((p.client_bw(1) - p.per_client_bw).abs() < 1.0);
        // With huge concurrency the aggregate fair share binds.
        let many = p.client_bw(10_000);
        assert!(many < p.per_client_bw);
        assert!((many - p.aggregate_bw / 10_000.0).abs() < 1.0);
    }

    #[test]
    fn pfs_write_includes_metadata_and_serialization() {
        let p = PfsModel::default();
        let tiny = p.file_write_time(1.0, 1);
        assert!(tiny >= p.metadata_latency_s);
        let big = p.file_write_time(4.0 * GB, 1);
        // 4 GB at 1.8 GB/s ≈ 2.2s + serialization 1.2s.
        assert!(big > 3.0 && big < 5.0, "big={big}");
    }

    #[test]
    fn rdma_beats_pfs_for_full_writes_at_equal_concurrency() {
        // The Fig 4 "100%" gap: even full-model writes are faster over
        // RDMA-to-memory than HDF5+PFS.
        let f = FabricModel::default();
        let p = PfsModel::default();
        let bytes = 4.0 * GB;
        let evostore = f.bulk_time(bytes, f.workers_per_node);
        let hdf5 = p.file_write_time(bytes, 64);
        assert!(evostore < hdf5, "evostore={evostore} hdf5={hdf5}");
    }

    #[test]
    fn frozen_layers_cut_training_time() {
        let t = TrainModel::default();
        let full = t.epoch_time(10_000_000, 0);
        let half = t.epoch_time(10_000_000, 5_000_000);
        assert!(half < full);
        // Backward is 2/3 of per-param work; freezing half saves ~1/3.
        let ratio = (full - t.task_overhead_s) / (half - t.task_overhead_s);
        assert!(ratio > 1.2 && ratio < 1.8, "ratio={ratio}");
    }
}
