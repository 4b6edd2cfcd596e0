//! The simulated clock: converts metered work into seconds, tracks memory,
//! and raises out-of-memory exactly where the real system would.

use crate::config::ClusterConfig;
use crate::ledger::SuperstepLedger;
use cutfit_util::num::part_index;

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An executor exceeded its memory budget — the fate of the paper's
    /// SSSP runs on the road networks.
    OutOfMemory {
        /// The executor that blew up.
        executor: u32,
        /// Superstep at which it happened.
        superstep: u64,
        /// Memory demand at failure, GB.
        required_gb: f64,
        /// Configured capacity, GB.
        capacity_gb: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory {
                executor,
                superstep,
                required_gb,
                capacity_gb,
            } => write!(
                f,
                "executor {executor} out of memory at superstep {superstep}: \
                 {required_gb:.2} GB required, {capacity_gb:.2} GB available"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Bytes billed for loading a dataset from storage: the edge list (two
/// 8-byte ids per edge) plus one 8-byte state record per vertex. The one
/// formula shared by the engine's per-run load charge and the serving
/// layer's once-per-session charge, so the two bills can never drift.
pub fn load_bytes(num_vertices: u64, num_edges: u64) -> u64 {
    num_edges * 16 + num_vertices * 8
}

/// Cumulative results of a simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Total simulated wall time, seconds.
    pub total_seconds: f64,
    /// Time spent computing (max over executors per superstep, summed).
    pub compute_seconds: f64,
    /// Time spent on the network.
    pub network_seconds: f64,
    /// Time spent reading/writing storage (load + shuffle spill).
    pub storage_seconds: f64,
    /// Scheduling/barrier overhead.
    pub overhead_seconds: f64,
    /// Number of supersteps executed.
    pub supersteps: u64,
    /// Total message records shipped.
    pub messages: u64,
    /// Bytes that crossed executor boundaries.
    pub remote_bytes: u64,
    /// Shuffle bytes that stayed executor-local.
    pub local_shuffle_bytes: u64,
    /// Peak per-executor memory demand observed, GB.
    pub peak_executor_memory_gb: f64,
    /// Simulated seconds spent recovering from executor failures: checkpoint
    /// restore reads plus replay of every superstep since the last
    /// checkpoint. Zero on a failure-free run.
    pub recovery_seconds: f64,
    /// Extra barrier wait attributable to straggler events: the gap between
    /// each superstep's critical path with and without its stragglers.
    pub straggler_slack_seconds: f64,
    /// Simulated seconds spent writing superstep checkpoints.
    pub checkpoint_seconds: f64,
    /// Total bytes written to checkpoint storage.
    pub checkpoint_bytes: u64,
    /// Number of executor failure events absorbed (each one recovered).
    pub executor_failures: u64,
    /// Per-superstep frontier telemetry, in superstep order, recorded by
    /// engines that track vertex activity (setup and repartition supersteps
    /// record none). Every sample is built from exact integers identical
    /// across scan and executor modes, so the trace never perturbs report
    /// equality.
    pub frontier_trace: Vec<FrontierSample>,
}

/// One superstep's frontier telemetry: how many vertices were active when
/// the scan started and how many edges the scan actually visited, against
/// the graph's totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontierSample {
    /// Vertices active at scan time.
    pub active_vertices: u64,
    /// Total vertices in the graph.
    pub total_vertices: u64,
    /// Edge triplets the scan visited (its `matched` count).
    pub scanned_edges: u64,
    /// Total edges in the graph.
    pub total_edges: u64,
}

impl FrontierSample {
    /// Fraction of vertices active, 0.0 on an empty graph.
    pub fn active_fraction(&self) -> f64 {
        ratio(self.active_vertices, self.total_vertices)
    }

    /// Fraction of edges scanned, 0.0 on an edgeless graph.
    pub fn scanned_fraction(&self) -> f64 {
        ratio(self.scanned_edges, self.total_edges)
    }
}

/// Summary of how a run's active frontier evolved, derived from the
/// per-superstep telemetry the engine records into the ledger. All inputs
/// are exact integers identical across scan and executor modes, so the
/// profile is as mode-invariant as the report it comes from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrontierProfile {
    /// Message supersteps with frontier telemetry.
    pub supersteps: u64,
    /// Peak fraction of vertices active in any superstep.
    pub peak_active_fraction: f64,
    /// Mean per-superstep active-vertex fraction.
    pub mean_active_fraction: f64,
    /// Mean per-superstep scanned-edge fraction.
    pub mean_scanned_fraction: f64,
    /// Supersteps with < 1% of vertices active.
    pub low_active_supersteps: u64,
}

impl SimReport {
    /// Summarizes the run's frontier evolution ([`SimReport::frontier_trace`]
    /// holds the full per-superstep series). Returns a zeroed profile when
    /// the run recorded no frontier telemetry (e.g. pure repartition
    /// charges).
    pub fn frontier_profile(&self) -> FrontierProfile {
        let steps = self.frontier_trace.len() as u64;
        if steps == 0 {
            return FrontierProfile::default();
        }
        let mut profile = FrontierProfile {
            supersteps: steps,
            ..FrontierProfile::default()
        };
        let mut active_sum = 0.0;
        let mut scanned_sum = 0.0;
        for sample in &self.frontier_trace {
            let active = sample.active_fraction();
            profile.peak_active_fraction = profile.peak_active_fraction.max(active);
            active_sum += active;
            scanned_sum += sample.scanned_fraction();
            if sample.active_vertices * 100 < sample.total_vertices {
                profile.low_active_supersteps += 1;
            }
        }
        profile.mean_active_fraction = active_sum / steps as f64;
        profile.mean_scanned_fraction = scanned_sum / steps as f64;
        profile
    }
}

/// `num / den` as a fraction, 0.0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A running simulation: owns the ledger, the clock, and memory accounting.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
    num_parts: u32,
    ledger: SuperstepLedger,
    report: SimReport,
    /// Raw resident bytes per partition (graph structure + vertex state).
    part_resident: Vec<u64>,
    /// Raw resident bytes per executor — always the sum of `part_resident`
    /// over the executor's partitions, maintained incrementally.
    resident_bytes: Vec<u64>,
    /// Bytes of retained shuffle lineage per executor.
    retained_bytes: Vec<f64>,
    /// Effective checkpoint interval: the scenario's value unless overridden
    /// per run (the engine's `PregelConfig::checkpoint_interval` hook).
    checkpoint_interval: u64,
    /// Accumulated per-executor clock offset, simulated seconds (scenario
    /// clock drift). Scrubbed by `reset`.
    clock_offset: Vec<f64>,
    /// Simulated seconds of superstep work since the last checkpoint — the
    /// replay bill a failing executor pays. Scrubbed by `reset`.
    since_checkpoint_secs: f64,
}

impl ClusterSim {
    /// Creates a simulation for `num_parts` partitions on `config`.
    pub fn new(config: ClusterConfig, num_parts: u32) -> Self {
        let executors = config.executors;
        Self {
            ledger: SuperstepLedger::new(num_parts, executors),
            part_resident: vec![0; num_parts as usize],
            resident_bytes: vec![0; executors as usize],
            retained_bytes: vec![0.0; executors as usize],
            report: SimReport::default(),
            checkpoint_interval: config.scenario.checkpoint_interval,
            clock_offset: vec![0.0; executors as usize],
            since_checkpoint_secs: 0.0,
            num_parts,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Resets the simulation to its just-constructed state while keeping
    /// every allocation — ledger part rows, the lazily-grown executor
    /// byte/message matrices, residency tables, retained-lineage tracking —
    /// so a serving layer can bill many jobs through one `ClusterSim`
    /// without per-job reconstruction. This also clears any residual state
    /// a previous run may have left behind: half-recorded ledger rows from
    /// a run that never reached `end_superstep` (e.g. an out-of-memory
    /// abort), declared resident bytes, the accumulated report, and all
    /// scenario state: drifted clocks, the since-checkpoint replay
    /// accumulator, and any per-run checkpoint-interval override. Scenario
    /// draws themselves are pure functions of config and seed, so nothing
    /// else needs scrubbing — a reset sim is bit-identical to a fresh one.
    pub fn reset(&mut self) {
        self.ledger.reset();
        self.part_resident.fill(0);
        self.resident_bytes.fill(0);
        self.retained_bytes.fill(0.0);
        self.report = SimReport::default();
        self.checkpoint_interval = self.config.scenario.checkpoint_interval;
        self.clock_offset.fill(0.0);
        self.since_checkpoint_secs = 0.0;
    }

    /// Overrides the scenario's checkpoint interval for the current run
    /// (`0` = never checkpoint). The engine applies this at run start from
    /// `PregelConfig::checkpoint_interval`; `reset` restores the config's
    /// value. Checkpointing works on a failure-free cluster too — it bills
    /// storage writes and truncates retained lineage, which is what rescues
    /// high-superstep jobs from lineage OOM.
    pub fn set_checkpoint_interval(&mut self, every: u64) {
        self.checkpoint_interval = every;
    }

    /// The effective checkpoint interval for this run (`0` = never).
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Charges a full re-materialization of the graph under a new cut, as
    /// one synthesized shuffle superstep: every edge record (16 bytes) is
    /// scanned twice (assignment, then the counting-sort scatter) and
    /// re-shuffled to its new partition. The records spread uniformly over
    /// executor pairs, so `(executors−1)/executors` of the volume pays wire
    /// time while all of it pays serialization and spill under the cost
    /// model, and lineage retention accrues exactly as for a computation
    /// superstep — a session that switches cuts on every job keeps paying
    /// for it. Returns the superstep's simulated duration; serving layers
    /// charge this whenever a job switches the active cut and sum it into
    /// their workload totals (the paper's tailor-vs-one-size-fits-all
    /// comparison, end to end).
    pub fn charge_repartition(&mut self, num_edges: u64) -> Result<f64, SimError> {
        let execs = u64::from(self.config.executors);
        let parts = u64::from(self.num_parts);
        if execs == 0 || parts == 0 || num_edges == 0 {
            // A degenerate sim (no executors/partitions) has no ledger rows
            // to charge — the barrier is the whole cost.
            return self.end_superstep();
        }
        let total_bytes = num_edges * 16;
        let cells = execs * execs;
        let cell_bytes = total_bytes / cells;
        let cell_msgs = num_edges / cells;
        for from in 0..execs {
            for to in 0..execs {
                let mut bytes = cell_bytes;
                let mut msgs = cell_msgs;
                if from == 0 && to == 0 {
                    // Remainders land on one pair so totals stay exact.
                    bytes += total_bytes % cells;
                    msgs += num_edges % cells;
                }
                if bytes > 0 || msgs > 0 {
                    self.ledger.send_exec(from as u32, to as u32, msgs, bytes);
                }
            }
        }
        let scans = num_edges * 2;
        for p in 0..parts {
            let mut n = scans / parts;
            if p == 0 {
                n += scans % parts;
            }
            if n > 0 {
                self.ledger.edge_scans(p as u32, n);
            }
        }
        self.end_superstep()
    }

    /// Number of partitions this simulation was created for.
    pub fn num_parts(&self) -> u32 {
        self.num_parts
    }

    /// Mutable access to the current superstep's ledger.
    pub fn ledger(&mut self) -> &mut SuperstepLedger {
        &mut self.ledger
    }

    /// Declares `bytes` of raw resident data (edges + vertex state) hosted
    /// by `part`, replacing the partition's previous declaration. Resident
    /// data persists across supersteps; call again to update when state
    /// sizes change.
    pub fn set_resident(&mut self, part: u32, bytes: u64) {
        let exec = part_index(self.config.executor_of(part));
        let old = std::mem::replace(&mut self.part_resident[part_index(part)], bytes);
        self.resident_bytes[exec] = self.resident_bytes[exec] - old + bytes;
    }

    /// Adjusts `part`'s residency by a signed delta — the incremental path
    /// for engines that track vertex-state growth per update instead of
    /// re-summing every replica each superstep.
    ///
    /// # Panics
    /// Panics if the delta would drive the partition's residency negative.
    pub fn adjust_resident(&mut self, part: u32, delta: i64) {
        if delta == 0 {
            return;
        }
        let exec = part_index(self.config.executor_of(part));
        let slot = &mut self.part_resident[part_index(part)];
        *slot = match slot.checked_add_signed(delta) {
            Some(bytes) => bytes,
            None => panic!("resident bytes cannot go negative"),
        };
        self.resident_bytes[exec] = match self.resident_bytes[exec].checked_add_signed(delta) {
            Some(bytes) => bytes,
            None => panic!("executor resident bytes cannot go negative"),
        };
    }

    /// Clears all residency (e.g. before re-declaring updated state sizes).
    pub fn clear_resident(&mut self) {
        self.part_resident.fill(0);
        self.resident_bytes.fill(0);
    }

    /// Charges the initial dataset load from storage: `total_bytes` read in
    /// parallel by all executors.
    pub fn charge_load(&mut self, total_bytes: u64) {
        let per_exec = total_bytes as f64 / self.config.executors as f64;
        let secs = per_exec / (self.config.storage.read_mbps() * 1e6);
        self.report.storage_seconds += secs;
        self.report.total_seconds += secs;
    }

    /// Closes the current superstep: converts the ledger into time, applies
    /// the scenario's degradations (heterogeneous speeds, stragglers, clock
    /// skew, contention, checkpointing, failure recovery), applies memory
    /// accounting, resets the ledger. Returns the superstep's simulated
    /// duration. Every scenario effect is gated on its knob being nonzero,
    /// so a zeroed [`ScenarioConfig`](crate::ScenarioConfig) takes the
    /// identical arithmetic path as the failure-free simulator and bills
    /// bit-for-bit the same.
    pub fn end_superstep(&mut self) -> Result<f64, SimError> {
        let cfg = &self.config;
        let cost = &cfg.cost;
        let scen = cfg.scenario;
        // 0-based index of the superstep being closed: scenario draws key on
        // it, which makes the fault schedule independent of executor mode
        // and evaluation order.
        let step = self.report.supersteps;

        // --- Compute: per-partition task times, LPT-style per executor. ---
        let mut exec_work = vec![0.0f64; cfg.executors as usize];
        let mut exec_max_task = vec![0.0f64; cfg.executors as usize];
        for (p, w) in self.ledger.part_work().iter().enumerate() {
            let task_ns = w.edge_scans as f64 * cost.per_edge_ns
                + w.vertex_ops as f64 * cost.per_vertex_ns
                + w.local_bytes as f64 * cost.per_byte_ns;
            let exec = cfg.executor_of(p as u32) as usize;
            exec_work[exec] += task_ns;
            exec_max_task[exec] = exec_max_task[exec].max(task_ns);
        }
        let mut compute_secs = 0.0f64;
        let mut clean_critical_path = 0.0f64;
        for exec in 0..cfg.executors as usize {
            // Tasks parallelise across cores but a superstep cannot end
            // before its longest task.
            let base =
                (exec_work[exec] / cfg.cores_per_executor as f64).max(exec_max_task[exec]) * 1e-9;
            let paced = if scen.heterogeneity > 0.0 {
                base * scen.speed_factor(exec as u32)
            } else {
                base
            };
            clean_critical_path = clean_critical_path.max(paced);
            let with_straggle = if scen.straggles(step, exec as u32) {
                paced * scen.straggler_slowdown.max(1.0)
            } else {
                paced
            };
            compute_secs = compute_secs.max(with_straggle);
        }
        // Straggler slack: how much of the barrier wait this superstep's
        // straggler events alone are responsible for.
        let straggler_slack = compute_secs - clean_critical_path;

        // --- Network: per-executor in/out volumes at NIC bandwidth. ---
        let out_bytes = self.ledger.out_bytes_per_exec();
        let in_bytes = self.ledger.in_bytes_per_exec();
        let worst_link_bytes = out_bytes
            .iter()
            .zip(&in_bytes)
            .map(|(&o, &i)| o.max(i))
            .max()
            .unwrap_or(0);
        let mut network_secs = worst_link_bytes as f64
            / cost.network_compression_ratio.max(1.0)
            / cfg.network_bytes_per_sec();
        if self.ledger.remote_bytes() > 0 {
            network_secs += cfg.network_latency_ms * 1e-3;
        }
        if scen.network_contention > 0.0 && network_secs > 0.0 {
            // A shared fabric degrades with the number of simultaneous
            // senders; a lone transmitter sees the dedicated-wire rate.
            let busy = self.ledger.busy_executors();
            if busy > 1 {
                let spread = (busy - 1) as f64 / cfg.executors.saturating_sub(1).max(1) as f64;
                network_secs *=
                    1.0 + scen.network_contention * scen.contention_level(step) * spread;
            }
        }

        // --- Serialization: CPU-side encode/decode of shuffled bytes,
        //     parallelised over cores; unaffected by NIC speed. ---
        let shuffle_bytes = self.ledger.remote_bytes() + self.ledger.local_shuffle_bytes();
        let ser_secs = (shuffle_bytes as f64 / cfg.executors as f64) * cost.ser_ns_per_byte * 1e-9
            / cfg.cores_per_executor as f64;
        compute_secs += ser_secs;

        // --- Storage: the synchronous share of shuffle spill (write then
        //     read); the rest rides the page cache. ---
        let mut storage_secs = if cost.shuffle_through_storage && shuffle_bytes > 0 {
            let per_exec =
                shuffle_bytes as f64 * cost.shuffle_storage_fraction / cfg.executors as f64;
            per_exec / (cfg.storage.write_mbps() * 1e6) + per_exec / (cfg.storage.read_mbps() * 1e6)
        } else {
            0.0
        };

        let mut overhead_secs = cost.superstep_overhead_ms * 1e-3;
        if scen.clock_drift > 0.0 && !self.clock_offset.is_empty() {
            // Executor clocks drift apart in proportion to elapsed simulated
            // time; the barrier cannot release until the slowest clock
            // agrees the superstep is over, so it pays the spread.
            let pre_barrier = compute_secs + network_secs + storage_secs + overhead_secs;
            for exec in 0..cfg.executors as usize {
                self.clock_offset[exec] += scen.drift_rate(exec as u32) * pre_barrier;
            }
            let fastest = self.clock_offset.iter().cloned().fold(f64::MIN, f64::max);
            let slowest = self.clock_offset.iter().cloned().fold(f64::MAX, f64::min);
            overhead_secs += fastest - slowest;
        }
        let mut superstep_secs = compute_secs + network_secs + storage_secs + overhead_secs;

        // --- Memory accounting. ---
        self.report.supersteps += 1;
        let shuffle_per_exec = shuffle_bytes as f64 / cfg.executors as f64;
        let capacity_gb = cfg.executor_memory_gb * cfg.usable_memory_fraction;
        let lineage_fixed = cfg.executor_memory_gb * 1e9 * cost.lineage_heap_fraction_per_superstep;
        let mut oom: Option<SimError> = None;
        for exec in 0..cfg.executors as usize {
            // Lineage growth: the in-memory share of retained shuffle data,
            // optional vertex-RDD snapshots, and the fixed per-superstep
            // bookkeeping that accumulates until job end.
            self.retained_bytes[exec] += shuffle_per_exec * cost.lineage_retention
                + self.resident_bytes[exec] as f64 * cost.state_snapshot_retention
                + lineage_fixed;
            // JVM object overhead applies to live data structures; retained
            // bookkeeping is counted at face value.
            let demand_gb = (self.resident_bytes[exec] as f64 * cost.memory_overhead_factor
                + self.retained_bytes[exec]
                + shuffle_per_exec)
                / 1e9;
            self.report.peak_executor_memory_gb =
                self.report.peak_executor_memory_gb.max(demand_gb);
            if demand_gb > capacity_gb && oom.is_none() {
                oom = Some(SimError::OutOfMemory {
                    executor: exec as u32,
                    superstep: self.report.supersteps,
                    required_gb: demand_gb,
                    capacity_gb,
                });
            }
        }

        // --- Checkpointing: materialize state at the superstep boundary.
        //     Billed as a parallel write of each executor's resident bytes
        //     (critical path: the largest executor) plus serialization; a
        //     completed checkpoint cuts the recomputation chain, releasing
        //     retained lineage and zeroing the replay window. ---
        self.since_checkpoint_secs += superstep_secs;
        if self.checkpoint_interval > 0 && (step + 1) % self.checkpoint_interval == 0 {
            let total_resident: u64 = self.resident_bytes.iter().sum();
            let largest = self.resident_bytes.iter().copied().max().unwrap_or(0) as f64;
            let write_secs = largest / (cfg.storage.write_mbps() * 1e6);
            let ckpt_ser_secs =
                largest * cost.ser_ns_per_byte * 1e-9 / cfg.cores_per_executor as f64;
            storage_secs += write_secs;
            compute_secs += ckpt_ser_secs;
            superstep_secs += write_secs + ckpt_ser_secs;
            self.report.checkpoint_seconds += write_secs + ckpt_ser_secs;
            self.report.checkpoint_bytes += total_resident;
            self.retained_bytes.fill(0.0);
            self.since_checkpoint_secs = 0.0;
        }

        // --- Failures: a failed executor restores its snapshot from the
        //     last checkpoint and replays everything since it. Execution is
        //     deterministic, so the replay reproduces identical state —
        //     failures change only the bill, never the results; the engine
        //     does not re-run anything. A failure in the same superstep as
        //     a checkpoint strikes after the write completes. ---
        if scen.failure_prob > 0.0 || scen.forced_failure.is_some() {
            let mut recovery_secs = 0.0f64;
            for exec in 0..cfg.executors {
                if !scen.fails(step, exec) {
                    continue;
                }
                self.report.executor_failures += 1;
                let snapshot = self.resident_bytes[exec as usize] as f64;
                let restore_secs = snapshot / (cfg.storage.read_mbps() * 1e6);
                recovery_secs += restore_secs + self.since_checkpoint_secs;
                // The restore reads the snapshot into fresh buffers next to
                // whatever the executor already holds — recovery can itself
                // run out of memory (the paper's SSSP death spiral).
                let demand_gb = (snapshot * cost.memory_overhead_factor
                    + self.retained_bytes[exec as usize]
                    + shuffle_per_exec
                    + snapshot)
                    / 1e9;
                self.report.peak_executor_memory_gb =
                    self.report.peak_executor_memory_gb.max(demand_gb);
                if demand_gb > capacity_gb && oom.is_none() {
                    oom = Some(SimError::OutOfMemory {
                        executor: exec,
                        superstep: self.report.supersteps,
                        required_gb: demand_gb,
                        capacity_gb,
                    });
                }
            }
            if recovery_secs > 0.0 {
                self.report.recovery_seconds += recovery_secs;
                superstep_secs += recovery_secs;
            }
        }
        if straggler_slack > 0.0 {
            self.report.straggler_slack_seconds += straggler_slack;
        }

        self.report.compute_seconds += compute_secs;
        self.report.network_seconds += network_secs;
        self.report.storage_seconds += storage_secs;
        self.report.overhead_seconds += overhead_secs;
        self.report.total_seconds += superstep_secs;
        self.report.messages += self.ledger.total_messages();
        self.report.remote_bytes += self.ledger.remote_bytes();
        self.report.local_shuffle_bytes += self.ledger.local_shuffle_bytes();
        if let Some((active, total_verts, scanned, total_edges)) = self.ledger.frontier_sample() {
            self.report.frontier_trace.push(FrontierSample {
                active_vertices: active,
                total_vertices: total_verts,
                scanned_edges: scanned,
                total_edges,
            });
        }
        self.ledger.reset();

        match oom {
            Some(e) => Err(e),
            None => Ok(superstep_secs),
        }
    }

    /// Final report.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Consumes the sim, returning the report.
    pub fn into_report(self) -> SimReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> ClusterConfig {
        ClusterConfig {
            executors: 2,
            cores_per_executor: 4,
            ..ClusterConfig::paper_cluster()
        }
    }

    #[test]
    fn empty_superstep_costs_only_overhead() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        let secs = sim.end_superstep().unwrap();
        let expected = small_cluster().cost.superstep_overhead_ms * 1e-3;
        assert!((secs - expected).abs() < 1e-12);
        assert_eq!(sim.report().supersteps, 1);
    }

    #[test]
    fn remote_bytes_cost_network_time() {
        let cfg = small_cluster();
        let mut sim = ClusterSim::new(cfg.clone(), 8);
        sim.ledger().send_exec(0, 1, 1000, 125_000_000); // 1 wire-second at 1Gbps, pre-compression
        let secs = sim.end_superstep().unwrap();
        let expected_wire = 1.0 / cfg.cost.network_compression_ratio;
        assert!(
            sim.report().network_seconds >= expected_wire,
            "network-bound superstep: {secs}"
        );
        assert!(secs > expected_wire);
        assert_eq!(sim.report().remote_bytes, 125_000_000);
    }

    #[test]
    fn local_bytes_do_not_cost_network_time() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        sim.ledger().send_exec(1, 1, 1000, 125_000_000);
        sim.end_superstep().unwrap();
        assert_eq!(sim.report().network_seconds, 0.0);
        assert_eq!(sim.report().local_shuffle_bytes, 125_000_000);
    }

    #[test]
    fn compute_respects_straggler_bound() {
        let cfg = small_cluster(); // 4 cores
        let mut sim = ClusterSim::new(cfg.clone(), 8);
        // One giant task in partition 0: cannot parallelise.
        let edges = 1_000_000_000u64;
        sim.ledger().edge_scans(0, edges);
        sim.end_superstep().unwrap();
        let expected = edges as f64 * cfg.cost.per_edge_ns * 1e-9;
        assert!(
            (sim.report().compute_seconds - expected).abs() / expected < 1e-9,
            "single task is not divisible"
        );
    }

    #[test]
    fn faster_network_is_faster() {
        let mut slow = ClusterSim::new(ClusterConfig::config_ii(), 8);
        let mut fast = ClusterSim::new(ClusterConfig::config_iii(), 8);
        for sim in [&mut slow, &mut fast] {
            sim.ledger().send_exec(0, 1, 1_000, 50_000_000);
            sim.end_superstep().unwrap();
        }
        assert!(slow.report().network_seconds > fast.report().network_seconds * 10.0);
    }

    #[test]
    fn ssd_beats_hdd_on_shuffle() {
        let mut hdd = ClusterSim::new(ClusterConfig::config_iii(), 8);
        let mut ssd = ClusterSim::new(ClusterConfig::config_iv(), 8);
        for sim in [&mut hdd, &mut ssd] {
            sim.ledger().send_exec(0, 1, 1_000, 50_000_000);
            sim.end_superstep().unwrap();
        }
        assert!(hdd.report().storage_seconds > ssd.report().storage_seconds * 5.0);
    }

    #[test]
    fn lineage_retention_triggers_oom() {
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 0.004; // 4 MB (~2.2 MB usable)
        let mut sim = ClusterSim::new(cfg, 8);
        let mut failed_at = None;
        for step in 0..100 {
            sim.ledger().send_exec(0, 1, 10, 100_000); // 100 KB retained per step
            if sim.end_superstep().is_err() {
                failed_at = Some(step);
                break;
            }
        }
        let step = failed_at.expect("must OOM eventually");
        assert!(step > 2, "should survive a few supersteps, died at {step}");
    }

    #[test]
    fn resident_memory_counts_with_overhead() {
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 0.001;
        cfg.cost.memory_overhead_factor = 10.0;
        let mut sim = ClusterSim::new(cfg, 8);
        sim.set_resident(0, 200_000); // ×10 = 2 MB > 1 MB budget
        assert!(sim.end_superstep().is_err());
    }

    #[test]
    fn set_resident_replaces_instead_of_accumulating() {
        // Regression: updating a partition's residency used to *add* to the
        // executor total, double-counting memory and raising spurious OOMs.
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 1.0;
        cfg.cost.memory_overhead_factor = 1.0;
        let mut sim = ClusterSim::new(cfg, 8);
        // 200 MB declared 50 times must still be 200 MB, not 10 GB.
        for _ in 0..50 {
            sim.set_resident(0, 200_000_000);
        }
        assert_eq!(sim.part_resident[0], 200_000_000);
        sim.end_superstep()
            .expect("no OOM: repeated declarations replace, not accumulate");
        assert!(sim.report().peak_executor_memory_gb < 0.3);
    }

    #[test]
    fn set_resident_can_shrink_a_partition() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        sim.set_resident(2, 5_000);
        sim.set_resident(2, 1_000);
        assert_eq!(sim.part_resident[2], 1_000);
    }

    #[test]
    fn adjust_resident_tracks_deltas_exactly() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        sim.set_resident(1, 1_000);
        sim.adjust_resident(1, 500);
        sim.adjust_resident(1, -200);
        assert_eq!(sim.part_resident[1], 1_300);
        // Executor totals follow: partitions 1, 3, 5, 7 live on executor 1.
        sim.set_resident(3, 700);
        let mut incremental = ClusterSim::new(small_cluster(), 8);
        incremental.set_resident(1, 1_300);
        incremental.set_resident(3, 700);
        assert_eq!(
            sim.end_superstep().unwrap(),
            incremental.end_superstep().unwrap(),
            "delta path and set path must bill identically"
        );
    }

    #[test]
    #[should_panic(expected = "resident bytes cannot go negative")]
    fn adjust_resident_rejects_underflow() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        sim.set_resident(0, 10);
        sim.adjust_resident(0, -11);
    }

    #[test]
    fn load_time_depends_on_storage() {
        let mut hdd = ClusterSim::new(ClusterConfig::config_iii(), 8);
        let mut ssd = ClusterSim::new(ClusterConfig::config_iv(), 8);
        hdd.charge_load(1_000_000_000);
        ssd.charge_load(1_000_000_000);
        assert!(hdd.report().storage_seconds > ssd.report().storage_seconds * 5.0);
    }

    #[test]
    fn serialization_cost_is_nic_independent() {
        // The same shuffle volume must cost identical compute (ser) time on
        // a 1 Gbps and a 40 Gbps cluster — only wire time may differ.
        let mut slow = ClusterSim::new(ClusterConfig::config_ii(), 8);
        let mut fast = ClusterSim::new(ClusterConfig::config_iii(), 8);
        for sim in [&mut slow, &mut fast] {
            sim.ledger().send_exec(0, 1, 1_000, 10_000_000);
            sim.end_superstep().unwrap();
        }
        assert_eq!(slow.report().compute_seconds, fast.report().compute_seconds);
        assert!(slow.report().network_seconds > fast.report().network_seconds);
    }

    #[test]
    fn compression_reduces_wire_time_not_ser_cost() {
        let mut plain = ClusterConfig::paper_cluster();
        plain.cost.network_compression_ratio = 1.0;
        let compressed = ClusterConfig::paper_cluster(); // default 4x
        let mut a = ClusterSim::new(plain, 8);
        let mut b = ClusterSim::new(compressed, 8);
        for sim in [&mut a, &mut b] {
            sim.ledger().send_exec(0, 1, 100, 40_000_000);
            sim.end_superstep().unwrap();
        }
        assert!(
            a.report().network_seconds > 3.0 * b.report().network_seconds,
            "4x compression ~ 4x less wire time"
        );
        assert_eq!(a.report().compute_seconds, b.report().compute_seconds);
    }

    #[test]
    fn storage_fraction_scales_spill_cost() {
        let mut all = ClusterConfig::paper_cluster();
        all.cost.shuffle_storage_fraction = 1.0;
        let mut some = ClusterConfig::paper_cluster();
        some.cost.shuffle_storage_fraction = 0.1;
        let mut a = ClusterSim::new(all, 8);
        let mut b = ClusterSim::new(some, 8);
        for sim in [&mut a, &mut b] {
            sim.ledger().send_exec(0, 1, 100, 48_000_000);
            sim.end_superstep().unwrap();
        }
        let ratio = a.report().storage_seconds / b.report().storage_seconds;
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn reset_is_bit_identical_to_fresh() {
        // Two identical runs through one reused sim must bill exactly like
        // two fresh sims — including after lazy ledger-matrix allocation,
        // declared residency, and accumulated lineage.
        let charge = |sim: &mut ClusterSim| {
            sim.charge_load(10_000_000);
            sim.set_resident(1, 5_000_000);
            sim.ledger().send_exec(0, 1, 100, 250_000);
            sim.ledger().edge_scans(2, 10_000);
            sim.end_superstep().unwrap();
            sim.ledger().send_exec(1, 0, 7, 900);
            sim.end_superstep().unwrap();
            sim.report().clone()
        };
        let mut reused = ClusterSim::new(small_cluster(), 8);
        let first = charge(&mut reused);
        reused.reset();
        assert_eq!(reused.part_resident[1], 0, "reset clears residency");
        let second = charge(&mut reused);
        let fresh = charge(&mut ClusterSim::new(small_cluster(), 8));
        assert_eq!(first, fresh);
        assert_eq!(second, fresh, "reuse after reset must not drift");
    }

    #[test]
    fn reset_clears_residue_of_an_aborted_run() {
        // An OOM abort leaves declared residency and retained lineage
        // behind, plus a ledger that was charged but never closed; reset
        // must scrub all of it so the next run starts from zero.
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 0.001;
        cfg.cost.memory_overhead_factor = 10.0;
        let mut sim = ClusterSim::new(cfg, 8);
        sim.set_resident(0, 200_000);
        sim.ledger().send_exec(0, 1, 5, 777); // half-recorded superstep
        assert!(sim.end_superstep().is_err());
        sim.reset();
        assert_eq!(sim.report(), &SimReport::default());
        let secs = sim.end_superstep().expect("no residue left to OOM on");
        assert_eq!(sim.report().remote_bytes, 0);
        assert_eq!(sim.report().messages, 0);
        let overhead = sim.config().cost.superstep_overhead_ms * 1e-3;
        assert!((secs - overhead).abs() < 1e-12, "only barrier overhead");
    }

    #[test]
    fn repartition_bills_wire_compute_and_lineage() {
        let mut sim = ClusterSim::new(small_cluster(), 8);
        let secs = sim.charge_repartition(1_000_000).unwrap();
        let r = sim.report().clone();
        assert!(secs > 0.0);
        assert_eq!(r.supersteps, 1);
        assert_eq!(r.messages, 1_000_000, "every edge record is shuffled");
        assert_eq!(
            r.remote_bytes + r.local_shuffle_bytes,
            16_000_000,
            "16 bytes per edge, totals exact despite uniform spreading"
        );
        // 2 executors: half the volume crosses the wire.
        assert_eq!(r.remote_bytes, 8_000_000);
        assert!(r.network_seconds > 0.0);
        assert!(r.compute_seconds > 0.0, "assignment + scatter scans");
        // Lineage accrues: repeated repartitioning keeps raising demand.
        let before = r.peak_executor_memory_gb;
        for _ in 0..5 {
            sim.charge_repartition(1_000_000).unwrap();
        }
        assert!(sim.report().peak_executor_memory_gb > before);
    }

    #[test]
    fn repartition_scales_with_edges_and_survives_one_executor() {
        let mut small = ClusterSim::new(small_cluster(), 8);
        let mut large = ClusterSim::new(small_cluster(), 8);
        let a = small.charge_repartition(100_000).unwrap();
        let b = large.charge_repartition(10_000_000).unwrap();
        assert!(b > a, "more edges cost more: {a} vs {b}");
        let mut solo = ClusterSim::new(
            ClusterConfig {
                executors: 1,
                ..small_cluster()
            },
            4,
        );
        let secs = solo.charge_repartition(1_000).unwrap();
        assert_eq!(solo.report().remote_bytes, 0, "single executor: all local");
        assert!(secs > 0.0);
    }

    #[test]
    fn zeroed_scenario_is_bit_identical_regardless_of_seed() {
        // The backward-compat pin at the unit level: an all-off scenario
        // must not perturb a single bit of the bill, whatever its seed.
        let charge = |scenario: crate::ScenarioConfig| {
            let mut cfg = small_cluster();
            cfg.scenario = scenario;
            let mut sim = ClusterSim::new(cfg, 8);
            sim.charge_load(5_000_000);
            sim.set_resident(0, 2_000_000);
            sim.ledger().send_exec(0, 1, 50, 125_000);
            sim.ledger().edge_scans(1, 9_999);
            sim.end_superstep().unwrap();
            sim.charge_repartition(100_000).unwrap();
            sim.into_report()
        };
        let baseline = charge(crate::ScenarioConfig::default());
        let seeded = charge(crate::ScenarioConfig {
            seed: 0x1234_5678_9ABC_DEF0,
            ..Default::default()
        });
        assert_eq!(baseline, seeded);
        assert_eq!(baseline.recovery_seconds, 0.0);
        assert_eq!(baseline.straggler_slack_seconds, 0.0);
        assert_eq!(baseline.checkpoint_bytes, 0);
        assert_eq!(baseline.executor_failures, 0);
    }

    fn scenario_cluster(scenario: crate::ScenarioConfig) -> ClusterConfig {
        ClusterConfig {
            scenario,
            ..small_cluster()
        }
    }

    #[test]
    fn heterogeneity_slows_the_critical_path() {
        let mut fair = ClusterSim::new(small_cluster(), 8);
        let mut mixed =
            ClusterSim::new(scenario_cluster(crate::ScenarioConfig::heterogeneous(3)), 8);
        for sim in [&mut fair, &mut mixed] {
            sim.ledger().edge_scans(0, 1_000_000);
            sim.ledger().edge_scans(1, 1_000_000);
            sim.end_superstep().unwrap();
        }
        assert!(
            mixed.report().compute_seconds > fair.report().compute_seconds,
            "some executor must be slower than the uniform baseline"
        );
    }

    #[test]
    fn stragglers_bill_slack_without_changing_metered_work() {
        let scen = crate::ScenarioConfig {
            seed: 5,
            straggler_prob: 1.0, // every (step, exec) cell straggles
            straggler_slowdown: 10.0,
            ..Default::default()
        };
        let mut base = ClusterSim::new(small_cluster(), 8);
        let mut slow = ClusterSim::new(scenario_cluster(scen), 8);
        for sim in [&mut base, &mut slow] {
            sim.ledger().edge_scans(0, 1_000_000);
            sim.end_superstep().unwrap();
        }
        let clean = base.report().compute_seconds;
        let r = slow.report();
        assert!((r.compute_seconds - 10.0 * clean).abs() < 1e-12);
        assert!((r.straggler_slack_seconds - 9.0 * clean).abs() < 1e-12);
        assert_eq!(r.messages, base.report().messages);
        assert_eq!(r.remote_bytes, base.report().remote_bytes);
    }

    #[test]
    fn contention_inflates_wire_time_only_with_concurrent_senders() {
        let scen = crate::ScenarioConfig {
            seed: 7,
            network_contention: 1.0,
            ..Default::default()
        };
        // One sender: dedicated-wire rate, identical to the baseline.
        let mut solo_base = ClusterSim::new(small_cluster(), 8);
        let mut solo_scen = ClusterSim::new(scenario_cluster(scen), 8);
        for sim in [&mut solo_base, &mut solo_scen] {
            sim.ledger().send_exec(0, 1, 10, 10_000_000);
            sim.end_superstep().unwrap();
        }
        assert_eq!(
            solo_base.report().network_seconds,
            solo_scen.report().network_seconds
        );
        // Two senders: the shared fabric costs extra.
        let mut duo_base = ClusterSim::new(small_cluster(), 8);
        let mut duo_scen = ClusterSim::new(scenario_cluster(scen), 8);
        for sim in [&mut duo_base, &mut duo_scen] {
            sim.ledger().send_exec(0, 1, 10, 10_000_000);
            sim.ledger().send_exec(1, 0, 10, 10_000_000);
            sim.end_superstep().unwrap();
        }
        assert!(duo_scen.report().network_seconds > duo_base.report().network_seconds);
    }

    #[test]
    fn clock_drift_accrues_skew_into_overhead() {
        let scen = crate::ScenarioConfig {
            seed: 11,
            clock_drift: 0.01,
            ..Default::default()
        };
        let mut base = ClusterSim::new(small_cluster(), 8);
        let mut drifty = ClusterSim::new(scenario_cluster(scen), 8);
        for _ in 0..10 {
            base.end_superstep().unwrap();
            drifty.end_superstep().unwrap();
        }
        assert!(drifty.report().overhead_seconds > base.report().overhead_seconds);
        // Drift compounds: later supersteps pay a wider spread. Compare the
        // first and second halves of the run.
        let mut early = ClusterSim::new(scenario_cluster(scen), 8);
        for _ in 0..5 {
            early.end_superstep().unwrap();
        }
        let first_half = early.report().overhead_seconds;
        let second_half = drifty.report().overhead_seconds - first_half;
        assert!(second_half > first_half, "skew grows with elapsed time");
    }

    #[test]
    fn checkpoints_bill_storage_and_truncate_lineage() {
        // The lineage-OOM workload from `lineage_retention_triggers_oom`
        // survives indefinitely once checkpoints truncate retained state —
        // the `checkpointInterval` rescue for high-superstep jobs.
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 0.004;
        cfg.scenario.checkpoint_interval = 2;
        let mut sim = ClusterSim::new(cfg, 8);
        for _ in 0..100 {
            sim.ledger().send_exec(0, 1, 10, 100_000);
            sim.end_superstep()
                .expect("checkpointing must bound lineage growth");
        }
        assert_eq!(sim.report().supersteps, 100);
        assert!(sim.report().checkpoint_seconds > 0.0 || sim.report().checkpoint_bytes == 0);
        // With resident state declared, checkpoints cost bytes and time.
        let mut cfg = small_cluster();
        cfg.scenario.checkpoint_interval = 2;
        let mut sim = ClusterSim::new(cfg, 8);
        sim.set_resident(0, 50_000_000);
        for _ in 0..4 {
            sim.end_superstep().unwrap();
        }
        assert_eq!(
            sim.report().checkpoint_bytes,
            100_000_000,
            "two checkpoints"
        );
        assert!(sim.report().checkpoint_seconds > 0.0);
        assert!(sim.report().storage_seconds > 0.0);
    }

    #[test]
    fn forced_failure_bills_restore_plus_replay() {
        let scen = crate::ScenarioConfig {
            forced_failure: Some((1, 0)),
            ..Default::default()
        };
        let mut base = ClusterSim::new(small_cluster(), 8);
        let mut faulty = ClusterSim::new(scenario_cluster(scen), 8);
        for sim in [&mut base, &mut faulty] {
            sim.set_resident(0, 10_000_000);
            sim.ledger().edge_scans(0, 100_000);
            sim.end_superstep().unwrap();
            sim.ledger().edge_scans(0, 100_000);
            sim.end_superstep().unwrap();
        }
        let clean = base.report();
        let r = faulty.report();
        assert_eq!(r.executor_failures, 1);
        // Replay covers both supersteps (no checkpoint) plus the restore
        // read of the 10 MB snapshot.
        let restore = 10_000_000.0 / (small_cluster().storage.read_mbps() * 1e6);
        let expected = clean.total_seconds + restore;
        assert!(
            (r.recovery_seconds - expected).abs() < 1e-9,
            "recovery {} vs expected {}",
            r.recovery_seconds,
            expected
        );
        assert!((r.total_seconds - (clean.total_seconds + r.recovery_seconds)).abs() < 1e-12);
    }

    #[test]
    fn checkpoints_bound_the_replay_window() {
        let mk = |interval: u64| {
            let scen = crate::ScenarioConfig {
                forced_failure: Some((5, 0)),
                checkpoint_interval: interval,
                ..Default::default()
            };
            let mut sim = ClusterSim::new(scenario_cluster(scen), 8);
            for _ in 0..6 {
                sim.ledger().edge_scans(0, 1_000_000);
                sim.end_superstep().unwrap();
            }
            sim.report().recovery_seconds
        };
        let unbounded = mk(0);
        let bounded = mk(2);
        assert!(
            bounded < unbounded / 2.0,
            "checkpoint every 2 steps must shrink replay: {bounded} vs {unbounded}"
        );
    }

    #[test]
    fn recovery_oom_is_an_error_and_resettable() {
        // Capacity fits live data (overhead 1×) but not live data plus the
        // restore buffer: the failure itself is what kills the executor.
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 1.0;
        cfg.usable_memory_fraction = 1.0;
        cfg.cost.memory_overhead_factor = 1.0;
        cfg.scenario.forced_failure = Some((0, 0));
        let mut sim = ClusterSim::new(cfg, 8);
        sim.set_resident(0, 700_000_000); // 0.7 GB live, 1.4 GB during restore
        let err = sim.end_superstep().expect_err("restore buffer must OOM");
        let SimError::OutOfMemory { executor, .. } = err;
        assert_eq!(executor, 0);
        assert!(
            sim.report().recovery_seconds > 0.0,
            "the attempted recovery is still billed"
        );
        // Without the failure the same footprint fits.
        let mut cfg = small_cluster();
        cfg.executor_memory_gb = 1.0;
        cfg.usable_memory_fraction = 1.0;
        cfg.cost.memory_overhead_factor = 1.0;
        let mut ok = ClusterSim::new(cfg, 8);
        ok.set_resident(0, 700_000_000);
        ok.end_superstep().expect("fits when nobody dies");
        // And the aborted sim resets to a bit-identical fresh state.
        sim.reset();
        assert_eq!(sim.report(), &SimReport::default());
        sim.end_superstep()
            .expect("reset scrubs the pending fault state");
    }

    #[test]
    fn reset_scrubs_scenario_state() {
        let scen = crate::ScenarioConfig {
            seed: 21,
            clock_drift: 0.02,
            failure_prob: 0.3,
            checkpoint_interval: 3,
            ..Default::default()
        };
        let charge = |sim: &mut ClusterSim| {
            sim.set_resident(1, 4_000_000);
            for _ in 0..7 {
                sim.ledger().send_exec(0, 1, 10, 50_000);
                sim.end_superstep().unwrap();
            }
            sim.report().clone()
        };
        let mut reused = ClusterSim::new(scenario_cluster(scen), 8);
        let first = charge(&mut reused);
        reused.set_checkpoint_interval(1); // per-run override must not survive reset
        reused.reset();
        let second = charge(&mut reused);
        let fresh = charge(&mut ClusterSim::new(scenario_cluster(scen), 8));
        assert_eq!(first, fresh);
        assert_eq!(
            second, fresh,
            "drifted clocks, replay window, and interval override must reset"
        );
    }

    #[test]
    fn report_accumulates_across_supersteps() {
        let mut sim = ClusterSim::new(small_cluster(), 4);
        for _ in 0..5 {
            sim.ledger().send_exec(0, 1, 10, 1000);
            sim.ledger().edge_scans(0, 100);
            sim.end_superstep().unwrap();
        }
        let r = sim.report();
        assert_eq!(r.supersteps, 5);
        assert_eq!(r.messages, 50);
        assert_eq!(r.remote_bytes, 5000);
        assert!(r.total_seconds > 0.0);
    }
}
