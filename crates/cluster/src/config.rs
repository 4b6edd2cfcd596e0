//! Cluster topology and cost-model configuration, with the paper's four
//! experimental configurations as presets.

use crate::scenario::ScenarioConfig;

/// Storage medium backing dataset load and shuffle spill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Spinning disks behind HDFS (the paper's configs i–iii).
    Hdd,
    /// Local NVMe/SATA SSDs on every executor (config iv).
    Ssd,
}

impl Storage {
    /// Sustained sequential read bandwidth in MB/s.
    pub(crate) fn read_mbps(&self) -> f64 {
        match self {
            Storage::Hdd => 160.0,
            Storage::Ssd => 2_000.0,
        }
    }

    /// Sustained sequential write bandwidth in MB/s.
    pub(crate) fn write_mbps(&self) -> f64 {
        match self {
            Storage::Hdd => 120.0,
            Storage::Ssd => 1_500.0,
        }
    }
}

/// Per-operation compute costs. Defaults approximate a JVM-based engine
/// (GraphX) rather than bare-metal Rust: the paper's observations are about
/// a system whose constant factors include serialization and object
/// overhead, and the partitioner comparisons only make sense against that
/// baseline.
#[derive(Debug, Clone, Copy)]
pub struct ComputeCostModel {
    /// Cost of scanning one edge triplet and producing its messages (ns).
    pub per_edge_ns: f64,
    /// Cost of one vertex-program application (ns).
    pub per_vertex_ns: f64,
    /// Cost of processing one byte of vertex/message state locally —
    /// serialization, copying, reduction (ns/byte).
    pub per_byte_ns: f64,
    /// Fixed per-message framing overhead added to every shipped record
    /// (bytes): vertex id + kryo headers + record framing.
    pub message_overhead_bytes: u64,
    /// Serialization + deserialization cost per shuffled byte (ns,
    /// single-core): kryo encode/decode is CPU work that does *not* speed
    /// up with a faster NIC — the reason the paper's 40 Gbps upgrade buys
    /// only ~15 %, not 40×.
    pub ser_ns_per_byte: f64,
    /// Per-superstep scheduling/barrier overhead (ms): a Pregel superstep
    /// is ~3 Spark stages (aggregate, apply, replicate), each paying task
    /// dispatch, DAG scheduling, and block-manager bookkeeping.
    pub superstep_overhead_ms: f64,
    /// Fraction of shuffle bytes that synchronously hits the storage medium
    /// (the rest is absorbed by the page cache). Raising storage speed
    /// (HDD→SSD) only moves this share — the paper's config (iv).
    pub shuffle_storage_fraction: f64,
    /// Wire compression ratio for shuffled bytes (Spark compresses shuffle
    /// blocks with LZ4 by default; vertex-id-heavy payloads compress well).
    /// Serialization cost is charged on the uncompressed volume.
    pub network_compression_ratio: f64,
    /// JVM object-overhead multiplier applied to resident data when
    /// accounting memory (Spark's in-memory representation is several times
    /// larger than the raw bytes).
    pub memory_overhead_factor: f64,
    /// Fraction of each superstep's shuffle bytes that stays pinned in
    /// executor memory until job end (shuffle files are kept for potential
    /// recomputation; their in-memory share is index blocks, netty buffers,
    /// and page-cache pressure).
    pub lineage_retention: f64,
    /// Fraction of executor heap consumed per superstep by cumulative
    /// bookkeeping that is never reclaimed before job end: shuffle-writer
    /// buffers, block-manager entries, netty pools (sized relative to the
    /// heap), and driver lineage. This is the term that grows with
    /// *superstep count* regardless of data size — the mechanism that kills
    /// high-diameter jobs (the paper's SSSP on the road networks, which
    /// need hundreds of supersteps) while short convergent jobs on much
    /// larger graphs survive. The default (0.45 %/superstep) is calibrated
    /// so jobs die at roughly 120 supersteps, scale-invariantly;
    /// `tests/memory_model.rs::sssp_on_road_networks_runs_out_of_memory`
    /// pins the death to supersteps 110–135 at two scales.
    pub lineage_heap_fraction_per_superstep: f64,
}

impl Default for ComputeCostModel {
    fn default() -> Self {
        Self {
            // GraphX processes roughly a million edge triplets per second
            // per core (scala iterators, boxing, hash probes) — these are
            // JVM-engine constants, not bare-metal Rust ones.
            per_edge_ns: 800.0,
            per_vertex_ns: 2_000.0,
            per_byte_ns: 2.0,
            message_overhead_bytes: 32,
            ser_ns_per_byte: 150.0,
            superstep_overhead_ms: 60.0,
            shuffle_storage_fraction: 0.06,
            network_compression_ratio: 4.0,
            memory_overhead_factor: 8.0,
            lineage_retention: 0.15,
            lineage_heap_fraction_per_superstep: 0.0045,
        }
    }
}

/// Full cluster description: the paper's testbed by default.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Human-readable configuration label.
    pub name: String,
    /// Number of executor machines (the paper's driver is not modelled; it
    /// contributes only scheduling overhead, which lives in the cost model).
    pub executors: u32,
    /// Worker cores per executor.
    pub cores_per_executor: u32,
    /// Network bandwidth per executor NIC, Gbit/s.
    pub network_gbps: f64,
    /// One-way network latency per superstep exchange, ms.
    pub network_latency_ms: f64,
    /// Storage medium.
    pub storage: Storage,
    /// Executor memory in GB (the paper: 220 GB per executor). Scale this
    /// together with the dataset scale for faithful memory behaviour.
    pub executor_memory_gb: f64,
    /// Fraction of executor memory actually usable for data (Spark's
    /// `spark.memory.fraction` of the heap after reserved overheads).
    pub usable_memory_fraction: f64,
    /// Compute cost model.
    pub cost: ComputeCostModel,
    /// Deterministic degradation scenario (heterogeneity, stragglers, clock
    /// drift, contention, failures + checkpointing). The default is all-off:
    /// the idealized failure-free cluster of the paper's evaluation.
    pub scenario: ScenarioConfig,
}

impl ClusterConfig {
    /// The paper's cluster: 4 executors × 32 cores, 220 GB each, 1 Gbps,
    /// HDFS on HDD.
    pub fn paper_cluster() -> Self {
        Self {
            name: "paper-cluster".to_string(),
            executors: 4,
            cores_per_executor: 32,
            network_gbps: 1.0,
            network_latency_ms: 0.5,
            storage: Storage::Hdd,
            executor_memory_gb: 220.0,
            usable_memory_fraction: 0.55,
            cost: ComputeCostModel::default(),
            scenario: ScenarioConfig::default(),
        }
    }

    /// Configuration (ii): the base cluster, used with 256 partitions.
    pub fn config_ii() -> Self {
        Self {
            name: "config-ii (1Gbps, HDD, 256 parts)".to_string(),
            ..Self::paper_cluster()
        }
    }

    /// Configuration (iii): network upgraded to 40 Gbps, storage unchanged.
    pub fn config_iii() -> Self {
        Self {
            name: "config-iii (40Gbps, HDD)".to_string(),
            network_gbps: 40.0,
            ..Self::paper_cluster()
        }
    }

    /// Configuration (iv): 40 Gbps network plus local SSDs.
    pub fn config_iv() -> Self {
        Self {
            name: "config-iv (40Gbps, SSD)".to_string(),
            network_gbps: 40.0,
            storage: Storage::Ssd,
            ..Self::paper_cluster()
        }
    }

    /// Scales executor memory (use the dataset scale factor so that memory
    /// pressure matches the full-size system).
    pub fn with_memory_scale(mut self, scale: f64) -> Self {
        self.executor_memory_gb *= scale;
        self
    }

    /// Replaces the degradation scenario, keeping topology and costs.
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.scenario = scenario;
        self
    }

    /// Executor hosting a partition: round-robin, as Spark distributes RDD
    /// partitions over executors.
    #[inline]
    pub fn executor_of(&self, part: u32) -> u32 {
        part % self.executors
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.executors * self.cores_per_executor
    }

    /// Network bandwidth in bytes/second.
    pub(crate) fn network_bytes_per_sec(&self) -> f64 {
        self.network_gbps * 1e9 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_evaluation_section() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.executors, 4);
        assert_eq!(c.cores_per_executor, 32);
        assert_eq!(c.total_cores(), 128);
        assert_eq!(c.executor_memory_gb, 220.0);
        assert_eq!(c.network_gbps, 1.0);
        assert_eq!(c.storage, Storage::Hdd);
    }

    #[test]
    fn presets_differ_as_described() {
        assert_eq!(ClusterConfig::config_iii().network_gbps, 40.0);
        assert_eq!(ClusterConfig::config_iii().storage, Storage::Hdd);
        assert_eq!(ClusterConfig::config_iv().storage, Storage::Ssd);
    }

    #[test]
    fn executor_mapping_is_round_robin() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.executor_of(0), 0);
        assert_eq!(c.executor_of(5), 1);
        assert_eq!(c.executor_of(127), 3);
    }

    #[test]
    fn memory_scale() {
        let c = ClusterConfig::paper_cluster().with_memory_scale(0.01);
        assert!((c.executor_memory_gb - 2.2).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_conversion() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.network_bytes_per_sec(), 125_000_000.0);
    }

    #[test]
    fn ssd_is_faster_than_hdd() {
        assert!(Storage::Ssd.read_mbps() > Storage::Hdd.read_mbps());
        assert!(Storage::Ssd.write_mbps() > Storage::Hdd.write_mbps());
    }
}
