//! What a run of a traced program did, recorded once and billed on every
//! other cut of the same graph.
//!
//! A program's states, the edges each superstep scans and the endpoints
//! each edge messages do not depend on the cut: merges are commutative and
//! associative and the states exact, so every cut of one graph runs the
//! same supersteps. Only the bill differs. A [`MessageTrace`] keeps what
//! the bill reads of a run in **global edge order** — the order of the
//! graph's edge list, which a cut's assignment maps to partition-major
//! positions because the build's scatter is stable — so
//! [`crate::PreparedRun::bill_traced`] bills any cut from its assignment
//! and its tables, bit for bit the engine's bill, without running the
//! program.
//!
//! The recorder is a separate entry point ([`crate::PreparedRun::record`]),
//! never a run option: job runs take the kernels without it, and the
//! recording kernels are chosen per partition or per superstep, never per
//! edge.

use cutfit_graph::types::PartId;
use cutfit_partition::PartitionedGraph;
use cutfit_util::num::vid_index;

use crate::bill::{MessageSizing, PartialBytes};
use crate::program::Messages;

/// What 64 consecutive edges of the edge list did in one superstep: bit
/// `g % 64` of each word is edge `g`'s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EdgeWord {
    /// Edges the scan visited.
    pub(crate) scanned: u64,
    /// Edges that messaged their source.
    pub(crate) to_src: u64,
    /// Edges that messaged their destination.
    pub(crate) to_dst: u64,
}

/// One recorded message superstep, every per-edge column in global edge
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TracedSuperstep {
    /// Active vertices when the superstep planned its scan.
    pub(crate) active: u64,
    /// One word group per 64 edges of the edge list.
    pub(crate) words: Vec<EdgeWord>,
    /// Per message, in global edge order and an edge's message to its
    /// source first: its mask. Empty under fixed-size messages.
    pub(crate) masks: Vec<u64>,
    /// `(new, old)` state bytes per applied vertex, ascending by vertex.
    /// Empty under fixed-size states.
    pub(crate) applied: Vec<(u64, u64)>,
}

impl TracedSuperstep {
    /// Sets `before[w]` to the number of messages sent by the edges of the
    /// 64-edge words before word `w`.
    pub(crate) fn count_messages(&self, before: &mut Vec<usize>) {
        before.resize(self.words.len(), 0);
        let mut total = 0;
        for (word, at) in self.words.iter().zip(before) {
            *at = total;
            total += (word.to_src.count_ones() + word.to_dst.count_ones()) as usize;
        }
    }

    /// Index in `masks` of the first message global edge `g` sent, with
    /// `before` from [`TracedSuperstep::count_messages`]; its message to
    /// its destination follows one to its source. Zero when `before` is
    /// empty: there are no masks.
    #[inline]
    pub(crate) fn first_message(&self, before: &[usize], g: usize) -> usize {
        let Some(&earlier) = before.get(g / 64) else {
            return 0;
        };
        let below = (1u64 << (g % 64)) - 1;
        let word = &self.words[g / 64];
        earlier + ((word.to_src & below).count_ones() + (word.to_dst & below).count_ones()) as usize
    }
}

/// What [`crate::PreparedRun::bill_traced`] reads of a run: the setup's
/// state sizes, then per message superstep the frontier size, which edges
/// were scanned, which endpoints each edge messaged, the messages' masks
/// and the applied vertices' state sizes. Recorded by
/// [`crate::PreparedRun::record`] for a program that declares its
/// [`crate::VertexProgram::message_sizing`]; the same on every cut, thread
/// count and scan mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTrace {
    pub(crate) vertices: u64,
    pub(crate) edges: u64,
    pub(crate) partials: PartialBytes,
    /// Every state's bytes, when the program declares them fixed.
    pub(crate) fixed_state: Option<u64>,
    /// Each vertex's initial state bytes; empty under fixed-size states.
    pub(crate) setup_bytes: SetupBytes,
    pub(crate) supersteps: Vec<TracedSuperstep>,
    /// True when the run stopped because no message flowed: any superstep
    /// cap at least as long bills the same run.
    pub(crate) converged: bool,
}

impl MessageTrace {
    /// Heap bytes the trace holds.
    pub fn heap_bytes(&self) -> u64 {
        let steps = self
            .supersteps
            .iter()
            .map(|s| 24 * s.words.len() + 8 * s.masks.len() + 16 * s.applied.len());
        (16 * self.setup_bytes.exceptions.len() + steps.sum::<usize>()) as u64
    }

    /// Panics unless the trace can bill a run of at most `max_iterations`
    /// supersteps on `pg`, whose edge assignment `assignment` claims to be.
    pub(crate) fn check(&self, pg: &PartitionedGraph, assignment: &[PartId], max_iterations: u64) {
        assert_eq!(
            (self.vertices, self.edges),
            (pg.num_vertices(), pg.num_edges()),
            "a trace bills cuts of the graph it was recorded on"
        );
        assert_eq!(
            assignment.len() as u64,
            self.edges,
            "one assignment per edge"
        );
        assert!(
            self.converged || max_iterations <= self.supersteps.len() as u64,
            "the trace holds {} supersteps; {max_iterations} asked",
            self.supersteps.len()
        );
    }
}

/// Each vertex's initial state bytes, as one size most vertices share and
/// the vertices whose size differs: a program's setup gives all but a few
/// vertices (SSSP's landmarks, say) the same state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SetupBytes {
    common: u64,
    /// `(vertex, bytes)` of each vertex whose size is not `common`,
    /// ascending by vertex.
    exceptions: Vec<(u64, u64)>,
}

impl SetupBytes {
    /// `bytes[v]` for every vertex `v`. The common size is the majority
    /// size when one exists (found in one pass, Boyer–Moore), so a vertex
    /// costs nothing here unless its size is in the minority.
    fn of(bytes: &[u64]) -> Self {
        let (mut common, mut lead) = (0, 0u64);
        for &b in bytes {
            if lead == 0 {
                common = b;
            }
            lead = if b == common { lead + 1 } else { lead - 1 };
        }
        let exceptions = (0u64..).zip(bytes).filter(|&(_, &b)| b != common);
        Self {
            common,
            exceptions: exceptions.map(|(v, &b)| (v, b)).collect(),
        }
    }

    /// Vertex `v`'s initial state bytes.
    pub(crate) fn get(&self, v: usize) -> u64 {
        let at = self
            .exceptions
            .binary_search_by_key(&(v as u64), |&(u, _)| u);
        at.map_or(self.common, |i| self.exceptions[i].1)
    }
}

const SCANNED: u8 = 1;
const TO_SRC: u8 = 2;
const TO_DST: u8 = 4;

/// What one partition's kernels note in a recording superstep, in its own
/// edge order.
pub(crate) struct PartCapture {
    /// Per edge: `SCANNED | TO_SRC | TO_DST`.
    flags: Vec<u8>,
    /// `(edge << 1 | to_dst, mask)` per message, in no particular order.
    /// Empty under fixed-size messages.
    masks: Vec<(u64, u64)>,
}

impl PartCapture {
    /// The dense scan's note: edge `edge`, scanned once a superstep, sent
    /// `msgs`.
    #[inline]
    pub(crate) fn scanned<M>(
        &mut self,
        edge: u32,
        msgs: &Messages<M>,
        mask: Option<fn(&M) -> u64>,
    ) {
        self.flags[edge as usize] = SCANNED
            | match msgs {
                Messages::None => 0,
                Messages::ToSrc(_) => TO_SRC,
                Messages::ToDst(_) => TO_DST,
                Messages::Both(..) => TO_SRC | TO_DST,
            };
        let Some(mask) = mask else { return };
        let key = u64::from(edge) << 1;
        match msgs {
            Messages::None => {}
            Messages::ToSrc(m) => self.masks.push((key, mask(m))),
            Messages::ToDst(m) => self.masks.push((key | 1, mask(m))),
            Messages::Both(ms, md) => {
                self.masks.push((key, mask(ms)));
                self.masks.push((key | 1, mask(md)));
            }
        }
    }

    /// Edge `edge` was scanned (a frontier walk took it).
    pub(crate) fn taken(&mut self, edge: u32) {
        self.flags[edge as usize] |= SCANNED;
    }

    /// Edge `edge` sent `msg` to its destination (`to_dst`) or source.
    pub(crate) fn messaged<M>(
        &mut self,
        edge: u32,
        to_dst: bool,
        msg: &M,
        mask: Option<fn(&M) -> u64>,
    ) {
        self.flags[edge as usize] |= if to_dst { TO_DST } else { TO_SRC };
        if let Some(mask) = mask {
            self.masks
                .push((u64::from(edge) << 1 | u64::from(to_dst), mask(msg)));
        }
    }
}

/// The kernels' side of a recording run: one capture per partition and the
/// program's mask.
pub(crate) struct Capture<M> {
    pub(crate) parts: Vec<PartCapture>,
    pub(crate) mask: Option<fn(&M) -> u64>,
}

/// Records a run into a [`MessageTrace`]: the kernels note into
/// [`Recorder::capture`], and every superstep's end turns the notes into
/// one [`TracedSuperstep`] in global edge order.
pub(crate) struct Recorder<M> {
    pub(crate) capture: Capture<M>,
    /// Global index of each edge, partition-major (see
    /// [`PartitionedGraph::global_order`]).
    global_of: Vec<u32>,
    /// Each vertex's state bytes as of the superstep being recorded; empty
    /// under fixed-size states.
    bytes_now: Vec<u64>,
    trace: MessageTrace,
}

impl<M> Recorder<M> {
    /// A recorder for a run on `pg`, whose edge assignment is `assignment`.
    pub(crate) fn new(
        pg: &PartitionedGraph,
        assignment: &[PartId],
        sizing: &MessageSizing<M>,
        fixed_state: Option<u64>,
    ) -> Self {
        let parts = pg
            .parts()
            .iter()
            .map(|part| PartCapture {
                flags: vec![0; part.edges.len()],
                masks: Vec::new(),
            })
            .collect();
        let mask = match *sizing {
            MessageSizing::Fixed(_) => None,
            MessageSizing::Masked { mask, .. } => Some(mask),
        };
        Self {
            capture: Capture { parts, mask },
            global_of: pg.global_order(assignment),
            bytes_now: Vec::new(),
            trace: MessageTrace {
                vertices: pg.num_vertices(),
                edges: pg.num_edges(),
                partials: PartialBytes::of(sizing),
                fixed_state,
                setup_bytes: SetupBytes::default(),
                supersteps: Vec::new(),
                converged: false,
            },
        }
    }

    /// Notes the setup's state sizes: vertex `v`'s is `state_bytes(v)`.
    pub(crate) fn setup(&mut self, state_bytes: impl Fn(usize) -> u64) {
        if self.trace.fixed_state.is_none() {
            let n = vid_index(self.trace.vertices);
            self.bytes_now = (0..n).map(state_bytes).collect();
            self.trace.setup_bytes = SetupBytes::of(&self.bytes_now);
        }
    }

    /// Ends a recorded superstep that planned its scan with `active`
    /// vertices active; `state_bytes(v)` is vertex `v`'s state size after
    /// the superstep's apply. Leaves every capture clear.
    pub(crate) fn end_superstep(
        &mut self,
        pg: &PartitionedGraph,
        active: u64,
        state_bytes: impl Fn(usize) -> u64,
    ) {
        let words = vid_index(self.trace.edges).div_ceil(64);
        let mut step = TracedSuperstep {
            active,
            words: vec![EdgeWord::default(); words],
            masks: Vec::new(),
            applied: Vec::new(),
        };
        let variable = self.trace.fixed_state.is_none();
        let mut received = vec![false; if variable { self.bytes_now.len() } else { 0 }];
        let mut globals = self.global_of.iter();
        for (part, capture) in pg.parts().iter().zip(&mut self.capture.parts) {
            let edges = part.edges.iter().zip(&mut capture.flags);
            for ((&(ls, ld), flags), &g) in edges.zip(&mut globals) {
                let flags = std::mem::take(flags);
                if flags == 0 {
                    continue;
                }
                let (word, bit) = (&mut step.words[g as usize / 64], 1u64 << (g % 64));
                let set = |on: bool| if on { bit } else { 0 };
                word.scanned |= set(flags & SCANNED != 0);
                word.to_src |= set(flags & TO_SRC != 0);
                word.to_dst |= set(flags & TO_DST != 0);
                if variable {
                    for (sent, local) in [(TO_SRC, ls), (TO_DST, ld)] {
                        if flags & sent != 0 {
                            received[vid_index(part.global(local))] = true;
                        }
                    }
                }
            }
        }
        if self.capture.mask.is_some() {
            // Each message's mask goes to its place in global order.
            let mut before = Vec::new();
            step.count_messages(&mut before);
            let sent = |w: &EdgeWord| (w.to_src.count_ones() + w.to_dst.count_ones()) as usize;
            let total = before.last().copied().unwrap_or(0) + step.words.last().map_or(0, sent);
            step.masks = vec![0; total];
            let mut first_edge = 0;
            for (part, capture) in pg.parts().iter().zip(&mut self.capture.parts) {
                for (key, mask) in capture.masks.drain(..) {
                    let g = self.global_of[first_edge + (key >> 1) as usize] as usize;
                    let after_src = key & 1 == 1 && step.words[g / 64].to_src >> (g % 64) & 1 == 1;
                    let at = step.first_message(&before, g) + usize::from(after_src);
                    step.masks[at] = mask;
                }
                first_edge += part.edges.len();
            }
        }
        for (v, _) in received.iter().enumerate().filter(|(_, &got)| got) {
            let new = state_bytes(v);
            let old = std::mem::replace(&mut self.bytes_now[v], new);
            step.applied.push((new, old));
        }
        self.trace.supersteps.push(step);
    }

    /// The trace, once the run has stopped; `converged` when it stopped
    /// because no message flowed.
    pub(crate) fn finish(mut self, converged: bool) -> MessageTrace {
        self.trace.converged = converged;
        self.trace
    }
}
