//! How the engine's work reaches the simulated cluster's ledger.
//!
//! A superstep is billed by table, not by replica. A delivered partial is
//! counted on the (source partition's executor → home's executor) cell —
//! the shuffle through a scratch row billed once per source partition, the
//! fold directly. An applied vertex counts its new state on its *broadcast
//! class* — vertices whose master executor and mirror-executor multiset
//! agree cost the same to broadcast — and each touched class is billed once
//! per superstep, multiplied by its mirror counts. Every ledger quantity is
//! an integer counter accumulated in per-thread deltas, so this is bit for
//! bit the bill of one ledger call per message and per (vertex, mirror)
//! pair; the engine's tests keep that walk as a reference.
//!
//! Beside the tables sits the **bill without a run**. What a message
//! superstep bills depends on the cut only through its tables, once it is
//! known which edges were scanned, which endpoints each edge messaged, how
//! big the merged partials are and how the applied states changed size.
//! [`bill_superstep`] writes such a superstep into a [`MeterDelta`]: one
//! partial per (partition, local receiver), one vertex op and one class
//! broadcast per vertex that receives one. It has two sources. An
//! always-active program whose every edge messages the same endpoints
//! with fixed-size messages and states — a [`SteadyShape`] — bills the
//! same superstep every time ([`crate::PreparedRun::bill_steady`]); any
//! other program with a [`MessageSizing`] is recorded once into a
//! [`crate::MessageTrace`] and billed from it on every cut of the graph
//! ([`crate::PreparedRun::bill_traced`]).

use std::ops::Range;

use cutfit_cluster::{ClusterSim, SimError, SuperstepLedger};
use cutfit_graph::types::PartId;
use cutfit_graph::VertexId;
use cutfit_partition::{PartitionedGraph, NO_PART};
use cutfit_util::hash::hash64;
use cutfit_util::num::{part_index, vid_index};

use crate::message_trace::TracedSuperstep;

/// The broadcast-class table: the one way a state broadcast is billed.
///
/// A vertex's new state travels from its master to every mirror, and the
/// ledger only sees executor pairs — so two vertices whose master sits on
/// the same executor and whose mirrors spread over the executors in the same
/// multiset cost the same per broadcast. Such vertices share a *class*; a
/// phase counts states and bytes per class and the flush multiplies by each
/// mirror count: `Σ_v count·bytes_v = count·Σ_v bytes_v`, and ledger
/// accumulation is commutative integer addition, so the bill is bit for bit
/// the one a walk over every (vertex, mirror) pair would produce. The classes
/// are a property of the cut and the partition→executor map, not of the
/// program, and are kept as sparse `(executor, count)` lists: nothing here
/// is sized by `executors²`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BroadcastClasses {
    /// Class of each vertex (isolated and unreplicated vertices share the
    /// mirrorless class).
    pub(crate) class_of: Vec<u32>,
    /// Vertices in each class.
    pub(crate) population: Vec<u64>,
    /// Executor of the class's master partition.
    pub(crate) master_exec: Vec<u32>,
    /// CSR offsets into `mirrors`, one group per class.
    pub(crate) offsets: Vec<u32>,
    /// `(mirror_exec, mirrors there)`, ascending by executor within a class.
    pub(crate) mirrors: Vec<(u32, u64)>,
    /// Vertices mastered (hash fallback included) at each partition.
    pub(crate) home_counts: Vec<u64>,
    /// Isolated (`NO_PART`) vertices per hash-fallback home.
    pub(crate) isolated_counts: Vec<u64>,
}

impl BroadcastClasses {
    /// Interns every vertex's `(master_exec, mirror-executor multiset)` key
    /// in one pass over the routing table; class ids are handed out in
    /// first-seen (ascending vertex) order.
    pub(crate) fn build(pg: &PartitionedGraph, home: &[PartId], exec_of_part: &[u32]) -> Self {
        Self::build_hashed(pg, home, exec_of_part, key_hash)
    }

    /// [`BroadcastClasses::build`], finding keys by `hash`: any hash gives
    /// the same classes, a good one only gives them sooner.
    fn build_hashed(
        pg: &PartitionedGraph,
        home: &[PartId],
        exec_of_part: &[u32],
        hash: fn(&[u32]) -> u64,
    ) -> Self {
        let np = pg.num_parts() as usize;
        let mut classes = Self {
            class_of: Vec::with_capacity(home.len()),
            population: Vec::new(),
            master_exec: Vec::new(),
            offsets: vec![0],
            mirrors: Vec::new(),
            home_counts: vec![0; np],
            isolated_counts: vec![0; np],
        };
        // The key is `[master_exec, exec, count, exec, count, …]`, empty for
        // a vertex without mirrors.
        let mut ids = KeyTable::new(hash);
        let (mut execs, mut key) = (Vec::new(), Vec::new());
        for (v, (&h, &master)) in home.iter().zip(pg.masters()).enumerate() {
            classes.home_counts[part_index(h)] += 1;
            if master == NO_PART {
                classes.isolated_counts[part_index(h)] += 1;
            }
            execs.clear();
            let replicas = pg.routing().parts_of(v as VertexId);
            execs.extend(
                replicas
                    .iter()
                    .filter(|&&p| p != h)
                    .map(|&p| exec_of_part[part_index(p)]),
            );
            execs.sort_unstable();
            key.clear();
            if !execs.is_empty() {
                key.push(exec_of_part[part_index(h)]);
            }
            for &exec in &execs {
                match key.len() {
                    n if n > 1 && key[n - 2] == exec => key[n - 1] += 1,
                    _ => key.extend([exec, 1]),
                }
            }
            let (class, fresh) = ids.intern(&key);
            if fresh {
                classes.population.push(0);
                classes.master_exec.push(key.first().copied().unwrap_or(0));
                let pairs = key.get(1..).unwrap_or(&[]).chunks_exact(2);
                classes
                    .mirrors
                    .extend(pairs.map(|pair| (pair[0], u64::from(pair[1]))));
                let end = u32::try_from(classes.mirrors.len())
                    .unwrap_or_else(|_| panic!("more than 2^32 broadcast mirrors"));
                classes.offsets.push(end);
            }
            classes.population[class as usize] += 1;
            classes.class_of.push(class);
        }
        classes
    }

    pub(crate) fn len(&self) -> usize {
        self.population.len()
    }

    /// The class's `(mirror_exec, mirrors there)` list.
    pub(crate) fn mirrors_of(&self, class: usize) -> &[(u32, u64)] {
        &self.mirrors[self.offsets[class] as usize..self.offsets[class + 1] as usize]
    }

    /// Bills `states` broadcasts of `bytes` in total, summed over the
    /// class's vertices that sent one: each mirror receives every state.
    pub(crate) fn bill(&self, class: usize, states: u64, bytes: u64, ledger: &mut SuperstepLedger) {
        let master = self.master_exec[class];
        for &(to, count) in self.mirrors_of(class) {
            ledger.send_exec(master, to, states * count, bytes * count);
        }
    }
}

/// The fixed hash of a broadcast-class key: a multiply-xor fold of its
/// words, finished by a full-avalanche mix so that the low bits a table
/// slot reads depend on every word.
fn key_hash(key: &[u32]) -> u64 {
    let folded = key.iter().fold(key.len() as u64, |h, &word| {
        (h.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    hash64(folded)
}

/// Class ids by key: every interned key end to end in one `u32` arena, and
/// an open-addressing table (linear probing, at most half full) of the
/// ids, each slot's key read back from the arena. Ids count up from zero
/// in first-interned order.
struct KeyTable {
    hash: fn(&[u32]) -> u64,
    /// The keys, id after id.
    arena: Vec<u32>,
    /// Arena offsets: key `id` is `arena[starts[id]..starts[id + 1]]`.
    starts: Vec<usize>,
    /// An id or [`KeyTable::EMPTY`] per slot; the length is a power of two.
    slots: Vec<u32>,
}

impl KeyTable {
    const EMPTY: u32 = u32::MAX;
    /// Slots before the first growth.
    const INITIAL_SLOTS: usize = 64;

    fn new(hash: fn(&[u32]) -> u64) -> Self {
        Self {
            hash,
            arena: Vec::new(),
            starts: vec![0],
            slots: vec![Self::EMPTY; Self::INITIAL_SLOTS],
        }
    }

    fn key(&self, id: u32) -> &[u32] {
        &self.arena[self.starts[id as usize]..self.starts[id as usize + 1]]
    }

    /// The first slot to probe for a key of hash `hash`.
    // Masked below the slot count, the hash fits `usize`.
    #[allow(clippy::cast_possible_truncation)]
    fn home_slot(&self, hash: u64) -> usize {
        (hash & (self.slots.len() as u64 - 1)) as usize
    }

    /// `key`'s id, and whether this call handed it out.
    fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        let mask = self.slots.len() - 1;
        let mut at = self.home_slot((self.hash)(key));
        while self.slots[at] != Self::EMPTY {
            let id = self.slots[at];
            if self.key(id) == key {
                return (id, false);
            }
            at = (at + 1) & mask;
        }
        let id = u32::try_from(self.starts.len() - 1)
            .ok()
            .filter(|&id| id != Self::EMPTY)
            .unwrap_or_else(|| panic!("more than 2^32 - 1 broadcast classes"));
        self.arena.extend_from_slice(key);
        self.starts.push(self.arena.len());
        self.slots[at] = id;
        if 2 * self.starts.len() > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    /// Doubles the slots and re-seats every id from its arena key.
    fn grow(&mut self) {
        let ids = self.starts.len() - 1;
        self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for id in (0u32..).take(ids) {
            let mut at = self.home_slot((self.hash)(self.key(id)));
            while self.slots[at] != Self::EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = id;
        }
    }
}

impl BroadcastClasses {
    /// Bills the setup superstep: one vertex op per mastered vertex, one
    /// broadcast message per (vertex, mirror) pair — billed per class — and
    /// the residency declaration (structure + replica states, declared once
    /// here and updated incrementally by the apply phase). `state_bytes`
    /// sizes vertex `v`'s initial state; with `fixed` set it is that
    /// constant, and the classes' totals are populations times it.
    pub(crate) fn bill_setup(
        &self,
        pg: &PartitionedGraph,
        home: &[PartId],
        sim: &mut ClusterSim,
        msg_overhead: u64,
        fixed: Option<u64>,
        state_bytes: impl Fn(usize) -> u64,
    ) -> Result<(), SimError> {
        for (q, &count) in (0..).zip(&self.home_counts) {
            if count > 0 {
                sim.ledger().vertex_ops(q, count);
            }
        }
        let sent: Vec<(u64, u64)> = match fixed {
            Some(size) => {
                let bytes = size + msg_overhead;
                self.population.iter().map(|&n| (n, n * bytes)).collect()
            }
            None => {
                let mut sent = vec![(0, 0); self.len()];
                for (v, &class) in self.class_of.iter().enumerate() {
                    let cell = &mut sent[class as usize];
                    cell.0 += 1;
                    cell.1 += state_bytes(v) + msg_overhead;
                }
                sent
            }
        };
        for (class, &(n, bytes)) in sent.iter().enumerate() {
            self.bill(class, n, bytes, sim.ledger());
        }

        let mut resident: Vec<u64> = pg.parts().iter().map(|p| p.structure_bytes()).collect();
        for (p, part) in pg.parts().iter().enumerate() {
            resident[p] += match fixed {
                Some(size) => part.num_vertices() * size,
                None => part
                    .vertices
                    .iter()
                    .map(|&v| state_bytes(vid_index(v)))
                    .sum(),
            };
        }
        // Isolated vertices have no replica, but their state still occupies
        // the hash-fallback home (the vertex RDD is hash-partitioned
        // regardless of edges) — and since messages only travel along
        // edges, those states never change after setup: charge them once.
        if let Some(size) = fixed {
            for (q, &count) in self.isolated_counts.iter().enumerate() {
                resident[q] += count * size;
            }
        } else {
            for (v, &master) in pg.masters().iter().enumerate() {
                if master == NO_PART {
                    resident[part_index(home[v])] += state_bytes(v);
                }
            }
        }
        for (p, &bytes) in (0..).zip(&resident) {
            sim.set_resident(p, bytes);
        }
        sim.end_superstep().map(drop)
    }
}

/// Per-thread metering accumulator. Every field is an exact integer
/// counter, so merging thread deltas in any order reproduces the sequential
/// ledger bit for bit. The two hot loops never touch the executor matrices:
/// the apply counts each broadcast state on its vertex's class
/// ([`MeterDelta::broadcast`]) and the shuffle counts each message on its
/// home's cell of a scratch row, flushed once per source partition
/// ([`MeterDelta::flush_row`]). [`MeterDelta::reset`] clears all of it, so a
/// run abandoned mid-phase leaves nothing behind for the next one.
pub(crate) struct MeterDelta {
    pub(crate) executors: u32,
    /// Row-major `executors × executors` byte/message matrices, allocated
    /// on the first recorded transfer (mirrors [`SuperstepLedger`]'s lazy
    /// hardening: a huge executor grid must not cost `executors²` memory
    /// per worker thread).
    pub(crate) exec_bytes: Vec<u64>,
    pub(crate) exec_msgs: Vec<u64>,
    /// Per-partition counters.
    pub(crate) vertex_ops: Vec<u64>,
    pub(crate) local_bytes: Vec<u64>,
    /// Per-partition resident-state deltas (signed bytes).
    pub(crate) resident: Vec<i64>,
    /// Messages shuffled by this thread.
    pub(crate) msgs: u64,
    /// `(states, bytes)` broadcast per class this phase; sized to the
    /// index's class table when a run starts.
    pub(crate) class_sent: Vec<(u64, u64)>,
    /// Classes with a non-zero `class_sent` cell, in first-hit order: the
    /// flush and the reset visit these only, so a sparse superstep costs
    /// O(applied), never O(classes).
    pub(crate) touched_classes: Vec<u32>,
    /// `(messages, bytes)` per home partition from the source partition
    /// being delivered; all zero between source partitions.
    pub(crate) row: Vec<(u64, u64)>,
}

impl MeterDelta {
    pub(crate) fn new(executors: u32, num_parts: usize) -> Self {
        Self {
            executors,
            exec_bytes: Vec::new(),
            exec_msgs: Vec::new(),
            vertex_ops: vec![0; num_parts],
            local_bytes: vec![0; num_parts],
            resident: vec![0; num_parts],
            msgs: 0,
            class_sent: Vec::new(),
            touched_classes: Vec::new(),
            row: vec![(0, 0); num_parts],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.exec_bytes.fill(0);
        self.exec_msgs.fill(0);
        self.vertex_ops.fill(0);
        self.local_bytes.fill(0);
        self.resident.fill(0);
        self.msgs = 0;
        for class in self.touched_classes.drain(..) {
            self.class_sent[class as usize] = (0, 0);
        }
        self.row.fill((0, 0));
    }

    /// Counts one state of `bytes` (framing included) broadcast by a vertex
    /// of `class` to all its mirrors.
    #[inline]
    pub(crate) fn broadcast(&mut self, class: u32, bytes: u64) {
        let sent = &mut self.class_sent[class as usize];
        if sent.0 == 0 {
            self.touched_classes.push(class);
        }
        sent.0 += 1;
        sent.1 += bytes;
    }

    /// Bills the scratch row — what source partition `from_exec` hosts
    /// delivered to the homes in `homes` — and zeroes it.
    pub(crate) fn flush_row(&mut self, from_exec: u32, exec_of_part: &[u32], homes: Range<usize>) {
        for q in homes {
            let (msgs, bytes) = std::mem::take(&mut self.row[q]);
            if msgs > 0 {
                self.send_exec(from_exec, exec_of_part[q], msgs, bytes);
                self.local_bytes[q] += bytes;
                self.msgs += msgs;
            }
        }
    }

    /// Row-major cell of `(from, to)` in the executor matrices.
    #[inline]
    fn exec_index(&self, from: u32, to: u32) -> usize {
        from as usize * self.executors as usize + to as usize
    }

    #[inline]
    pub(crate) fn send_exec(&mut self, from_exec: u32, to_exec: u32, msgs: u64, bytes: u64) {
        if self.exec_bytes.is_empty() {
            let cells = self.executors as usize * self.executors as usize;
            self.exec_bytes = vec![0; cells];
            self.exec_msgs = vec![0; cells];
        }
        let idx = self.exec_index(from_exec, to_exec);
        self.exec_bytes[idx] += bytes;
        self.exec_msgs[idx] += msgs;
    }

    pub(crate) fn flush_ledger(&self, classes: &BroadcastClasses, ledger: &mut SuperstepLedger) {
        for &class in &self.touched_classes {
            let (states, bytes) = self.class_sent[class as usize];
            classes.bill(class as usize, states, bytes, ledger);
        }
        for (p, &ops) in (0..).zip(&self.vertex_ops) {
            if ops > 0 {
                ledger.vertex_ops(p, ops);
            }
        }
        for (p, &bytes) in (0..).zip(&self.local_bytes) {
            if bytes > 0 {
                ledger.local_bytes(p, bytes);
            }
        }
        if self.exec_bytes.is_empty() {
            return;
        }
        for from in 0..self.executors {
            for to in 0..self.executors {
                let idx = self.exec_index(from, to);
                if self.exec_msgs[idx] > 0 || self.exec_bytes[idx] > 0 {
                    ledger.send_exec(from, to, self.exec_msgs[idx], self.exec_bytes[idx]);
                }
            }
        }
    }

    pub(crate) fn flush_resident(&self, sim: &mut ClusterSim) {
        for (p, &delta) in (0..).zip(&self.resident) {
            sim.adjust_resident(p, delta);
        }
    }
}

/// Which endpoints of every edge a steady program messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receivers {
    /// The source ([`crate::Messages::ToSrc`] on every edge).
    Src,
    /// The destination ([`crate::Messages::ToDst`] on every edge).
    Dst,
    /// Both endpoints ([`crate::Messages::Both`] on every edge).
    Both,
}

/// What the bill of an always-active program depends on besides the cut,
/// when every superstep is the same: which endpoints every edge messages,
/// and the fixed sizes of a message and a state. A program declares it with
/// [`crate::VertexProgram::steady_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyShape {
    /// The endpoints every edge messages, every superstep.
    pub receivers: Receivers,
    /// [`crate::VertexProgram::msg_bytes`] of every message.
    pub msg_bytes: u64,
    /// [`crate::VertexProgram::state_bytes`] of every state.
    pub state_bytes: u64,
}

/// How the size of a merged message follows from the messages merged into
/// it, declared by [`crate::VertexProgram::message_sizing`]: what a traced
/// bill needs to size the one partial a partition ships per receiver
/// without running the merge.
#[derive(Debug)]
pub enum MessageSizing<M> {
    /// Every message, merged or not, is this many bytes.
    Fixed(u64),
    /// A message is `base + per_entry · popcount(mask(msg))` bytes, and a
    /// merged message's mask is the OR of its operands' masks: the set of
    /// finite entries of an element-wise minimum, say.
    Masked {
        /// The message's mask of sized entries.
        mask: fn(&M) -> u64,
        /// Bytes of a message with no entry set.
        base: u64,
        /// Bytes of each set entry.
        per_entry: u64,
    },
}

/// [`MessageSizing`] without the mask function: how a bill sizes a partial
/// from the OR of its messages' masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PartialBytes {
    Fixed(u64),
    Masked { base: u64, per_entry: u64 },
}

impl PartialBytes {
    pub(crate) fn of<M>(sizing: &MessageSizing<M>) -> Self {
        match *sizing {
            MessageSizing::Fixed(bytes) => PartialBytes::Fixed(bytes),
            MessageSizing::Masked {
                base, per_entry, ..
            } => PartialBytes::Masked { base, per_entry },
        }
    }

    /// Payload bytes of a partial whose messages' masks OR to `mask`.
    fn bytes(self, mask: u64) -> u64 {
        match self {
            PartialBytes::Fixed(bytes) => bytes,
            PartialBytes::Masked { base, per_entry } => {
                base + per_entry * u64::from(mask.count_ones())
            }
        }
    }
}

/// The tables of one cut that a superstep's bill reads.
pub(crate) struct CutTables<'a> {
    pub(crate) pg: &'a PartitionedGraph,
    pub(crate) classes: &'a BroadcastClasses,
    pub(crate) home: &'a [PartId],
    pub(crate) exec_of_part: &'a [u32],
    /// Framing bytes billed per message on top of its payload.
    pub(crate) msg_overhead: u64,
}

/// Which edges one superstep scanned and which endpoints they messaged.
pub(crate) enum StepEdges<'a> {
    /// Every edge, messaging the same endpoints: a steady program.
    Every(Receivers),
    /// A recorded superstep, in global edge order: the cut's edge `k` of
    /// partition `p` is global edge `global_of[e]`, where `e` counts the
    /// edges of partitions before `p`, plus `k`.
    Traced {
        step: &'a TracedSuperstep,
        global_of: &'a [u32],
    },
}

/// `(new, old)` state bytes of the vertices a superstep applied.
pub(crate) enum AppliedBytes<'a> {
    /// Every state is this many bytes, before and after.
    Fixed(u64),
    /// One pair per applied vertex, ascending by vertex.
    Each(&'a [(u64, u64)]),
}

/// One message superstep as its bill sees it.
pub(crate) struct SuperstepBill<'a> {
    pub(crate) edges: StepEdges<'a>,
    pub(crate) partials: PartialBytes,
    pub(crate) applied: AppliedBytes<'a>,
}

/// Buffers of [`bill_superstep`] over one cut, allocated once per bill and
/// all-clear between supersteps.
pub(crate) struct BillScratch {
    /// Edges scanned per partition, the last superstep billed.
    pub(crate) matched: Vec<u64>,
    /// Per local vertex of the partition being walked: some message
    /// reached it.
    hit: Vec<bool>,
    /// Per local vertex of the partition being walked: the OR of its
    /// messages' masks; empty unless partials are masked.
    masks: Vec<u64>,
    /// Messages of a traced superstep before each 64-edge word of it (see
    /// [`TracedSuperstep::count_messages`]); empty unless partials are
    /// masked.
    messages_before: Vec<usize>,
    /// Per vertex: some partial reached it.
    received: Vec<bool>,
}

impl BillScratch {
    pub(crate) fn new(pg: &PartitionedGraph, partials: PartialBytes) -> Self {
        let widest = pg.parts().iter().map(|p| p.vertices.len()).max();
        let widest = widest.unwrap_or(0);
        let masked = matches!(partials, PartialBytes::Masked { .. });
        Self {
            matched: vec![0; pg.parts().len()],
            hit: vec![false; widest],
            masks: if masked { vec![0; widest] } else { Vec::new() },
            messages_before: Vec::new(),
            received: vec![false; vid_index(pg.num_vertices())],
        }
    }
}

/// Writes one message superstep into `delta` and its per-partition edge
/// scans into `scratch.matched`, exactly as the engine's superstep leaves
/// them there: per (partition, local vertex that some message reached) one
/// partial of [`SuperstepBill::partials`]' size, counted on its home's cell
/// of the scratch row and billed once per source partition; per vertex that
/// received a partial, one vertex op, its new state's bytes and one
/// broadcast on its class, and — where the state changed size — residency
/// moved on every partition holding a replica. A steady program's
/// superstep is the case of every edge scanned, the same receivers and
/// fixed sizes. Returns the partials delivered: the superstep's message
/// count.
pub(crate) fn bill_superstep(
    cut: &CutTables<'_>,
    bill: &SuperstepBill<'_>,
    scratch: &mut BillScratch,
    delta: &mut MeterDelta,
) -> u64 {
    let BillScratch {
        matched,
        hit,
        masks,
        messages_before,
        received,
    } = scratch;
    if let (StepEdges::Traced { step, .. }, false) = (&bill.edges, masks.is_empty()) {
        step.count_messages(messages_before);
    }
    let msg_bytes = |mask| bill.partials.bytes(mask) + cut.msg_overhead;
    let mut first_edge = 0;
    for (p, (part, &from_exec)) in cut.pg.parts().iter().zip(cut.exec_of_part).enumerate() {
        let locals = part.vertices.len();
        let (hit, masks) = (
            &mut hit[..locals],
            masks.get_mut(..locals).unwrap_or_default(),
        );
        // Which endpoint a messaging edge messages is written without a
        // branch, as is the partial sweep below unless few locals were
        // reached: in a dense superstep about half the edges message each
        // endpoint, at random.
        let mut reached = 0;
        let mut mark = |local: u32, sent: bool, mask: u64| {
            reached += usize::from(sent);
            hit[local as usize] |= sent;
            if let Some(acc) = masks.get_mut(local as usize) {
                *acc |= if sent { mask } else { 0 };
            }
        };
        let edges = first_edge..first_edge + part.edges.len();
        first_edge = edges.end;
        matched[p] = match &bill.edges {
            StepEdges::Every(receivers) => {
                let (src, dst) = (*receivers != Receivers::Dst, *receivers != Receivers::Src);
                for &(ls, ld) in &part.edges {
                    mark(ls, src, 0);
                    mark(ld, dst, 0);
                }
                part.num_edges()
            }
            StepEdges::Traced { step, global_of } => {
                let mut scanned = 0;
                for (&(ls, ld), &g) in part.edges.iter().zip(&global_of[edges]) {
                    let (word, bit) = (&step.words[g as usize / 64], g % 64);
                    scanned += word.scanned >> bit & 1;
                    let (to_src, to_dst) = (word.to_src >> bit & 1, word.to_dst >> bit & 1);
                    if to_src | to_dst == 0 {
                        continue;
                    }
                    // Masks are listed in global edge order, an edge's
                    // message to its source first; none when unmasked.
                    let first = (!messages_before.is_empty())
                        .then(|| step.first_message(messages_before, g as usize));
                    let mask = |behind: bool| {
                        let at = first.map(|i| i + usize::from(behind));
                        at.and_then(|i| step.masks.get(i)).copied().unwrap_or(0)
                    };
                    mark(ls, to_src == 1, mask(false));
                    mark(ld, to_dst == 1, mask(to_src == 1));
                }
                scanned
            }
        };

        if reached == 0 {
            continue;
        }
        let sparse = reached * 4 < locals;
        for (local, (&v, got)) in part.vertices.iter().zip(hit.iter_mut()).enumerate() {
            let got = std::mem::take(got);
            if sparse && !got {
                continue;
            }
            let mask = masks.get_mut(local).map_or(0, std::mem::take);
            let cell = &mut delta.row[part_index(cut.home[vid_index(v)])];
            cell.0 += u64::from(got);
            cell.1 += if got { msg_bytes(mask) } else { 0 };
            received[vid_index(v)] |= got;
        }
        delta.flush_row(from_exec, cut.exec_of_part, 0..cut.exec_of_part.len());
    }

    let mut each = match bill.applied {
        AppliedBytes::Fixed(_) => [].iter(),
        AppliedBytes::Each(sizes) => sizes.iter(),
    };
    for (v, got) in received.iter_mut().enumerate() {
        if !std::mem::take(got) {
            continue;
        }
        let (new, old) = match bill.applied {
            AppliedBytes::Fixed(bytes) => (bytes, bytes),
            AppliedBytes::Each(_) => each.next().copied().unwrap_or((0, 0)),
        };
        let q = part_index(cut.home[v]);
        delta.vertex_ops[q] += 1;
        delta.local_bytes[q] += new;
        delta.broadcast(cut.classes.class_of[v], new + cut.msg_overhead);
        let grew = new as i64 - old as i64;
        if grew != 0 {
            for &p in cut.pg.routing().parts_of(v as VertexId) {
                delta.resident[part_index(p)] += grew;
            }
        }
    }
    delta.msgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_cluster::ClusterConfig;
    use cutfit_graph::Graph;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    /// The interning the key table replaced, kept as its reference: one
    /// `Vec` key per class in a `BTreeMap`.
    fn reference_classes(
        pg: &PartitionedGraph,
        home: &[PartId],
        exec_of_part: &[u32],
    ) -> BroadcastClasses {
        let np = pg.num_parts() as usize;
        let mut classes = BroadcastClasses {
            class_of: Vec::new(),
            population: Vec::new(),
            master_exec: Vec::new(),
            offsets: vec![0],
            mirrors: Vec::new(),
            home_counts: vec![0; np],
            isolated_counts: vec![0; np],
        };
        let mut ids: std::collections::BTreeMap<Vec<u32>, u32> = Default::default();
        for (v, (&h, &master)) in home.iter().zip(pg.masters()).enumerate() {
            classes.home_counts[h as usize] += 1;
            if master == NO_PART {
                classes.isolated_counts[h as usize] += 1;
            }
            let mut execs: Vec<u32> = (pg.routing().parts_of(v as VertexId).iter())
                .filter(|&&p| p != h)
                .map(|&p| exec_of_part[p as usize])
                .collect();
            execs.sort_unstable();
            let mut key = Vec::new();
            if !execs.is_empty() {
                key.push(exec_of_part[h as usize]);
            }
            for exec in execs {
                match key.len() {
                    n if n > 1 && key[n - 2] == exec => key[n - 1] += 1,
                    _ => key.extend([exec, 1]),
                }
            }
            let fresh = classes.population.len() as u32;
            let class = *ids.entry(key.clone()).or_insert(fresh);
            if class == fresh {
                classes.population.push(0);
                classes.master_exec.push(key.first().copied().unwrap_or(0));
                let pairs = key.get(1..).unwrap_or(&[]).chunks_exact(2);
                classes
                    .mirrors
                    .extend(pairs.map(|pair| (pair[0], u64::from(pair[1]))));
                classes.offsets.push(classes.mirrors.len() as u32);
            }
            classes.population[class as usize] += 1;
            classes.class_of.push(class);
        }
        classes
    }

    #[test]
    fn interning_equals_the_tree_reference() {
        // RMAT with isolated vertices appended, so the hash-fallback homes
        // are exercised, cut by the six GraphX strategies.
        let config = cutfit_datagen::RmatConfig {
            scale: 9,
            edges: 8 << 9,
            ..Default::default()
        };
        let g = cutfit_datagen::rmat(&config, 7);
        let g = Graph::new(g.num_vertices() + 7, g.edges().to_vec());
        let mut grew = false;
        for parts in [1, 10, 64] {
            for strategy in GraphXStrategy::all() {
                let pg = strategy.partition(&g, parts);
                let home_of = |(v, &m): (u64, &PartId)| match m {
                    NO_PART => (hash64(v) % u64::from(parts)) as PartId,
                    m => m,
                };
                let home: Vec<PartId> = (0u64..).zip(pg.masters()).map(home_of).collect();
                for executors in [1, 4, 7, 100] {
                    let cluster = ClusterConfig {
                        executors,
                        ..ClusterConfig::paper_cluster()
                    };
                    let exec_of_part: Vec<u32> =
                        (0..parts).map(|p| cluster.executor_of(p)).collect();
                    let what = format!("{strategy} at {parts} parts on {executors} executors");
                    let reference = reference_classes(&pg, &home, &exec_of_part);
                    let interned = BroadcastClasses::build(&pg, &home, &exec_of_part);
                    assert_eq!(interned, reference, "{what}");
                    let collided = BroadcastClasses::build_hashed(&pg, &home, &exec_of_part, |_| 7);
                    assert_eq!(collided, reference, "{what}, constant hash");
                    grew |= 2 * reference.len() > KeyTable::INITIAL_SLOTS;
                }
            }
        }
        assert!(grew, "no cut had classes enough to grow the table");
    }
}
