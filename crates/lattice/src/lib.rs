//! # Single-shot lattice agreement from atomic snapshots
//!
//! The third object of Theorem 1: lattice agreement "can in turn be
//! constructed from snapshots \[11\]" (Attiya, Herlihy, Rachman). Each
//! process proposes an input `x_i` from a join-semilattice and learns an
//! output `y_i` such that outputs are pairwise **comparable**, dominate
//! the proposer's input (**downward validity**) and stay below the join of
//! all inputs (**upward validity**).
//!
//! The construction is the snapshot fix-point loop:
//!
//! ```text
//! v := x_i
//! loop {
//!     update_i(v);  view := scan();
//!     v' := join of all proposed values in view;
//!     if v' == v { return v }  else { v := v' }
//! }
//! ```
//!
//! Segments only grow (each written value is a join including the previous
//! one), and scans are atomic, so any two returned joins are ordered by
//! the scans' linearization — Comparability. Each retry strictly enlarges
//! the set of inputs folded into `v`, so the loop terminates within `n`
//! rounds — wait-freedom, inherited from the snapshot's `(F, τ)` guarantee
//! with `τ(f) = U_f`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod semilattice;

pub use semilattice::{JoinSemilattice, MaxLattice, SetLattice, VectorLattice};

use std::collections::BTreeMap;

use gqs_core::{GeneralizedQuorumSystem, ProcessId};
use gqs_registers::{GeneralizedMsg, GeneralizedQaf, RegMap, VersionedWrite};
use gqs_simnet::{Context, Effect, Flood, OpId, Protocol, TimerId};
use gqs_snapshots::{Segment, SnapOp, SnapResp, SnapshotNode};

/// Base of the internal op-id namespace for embedded snapshot operations
/// (distinct from the snapshot layer's own internal register ids).
pub const INTERNAL_OP_BASE: u64 = 1 << 62;

/// Client operation: `propose(x)`.
#[derive(Clone, PartialEq, Debug)]
pub struct Propose<L>(pub L);

/// Response: the learned output value `y`.
#[derive(Clone, PartialEq, Debug)]
pub struct Learned<L>(pub L);

/// The replicated register state underlying the snapshot: one segment of
/// `Option<L>` per process.
pub type SnapState<L> = RegMap<usize, Segment<Option<L>>>;
/// The update type of the underlying registers.
pub type SnapUpdate<L> = VersionedWrite<usize, Segment<Option<L>>>;
/// The quorum access engine of the underlying registers.
pub type SnapEngine<L> = GeneralizedQaf<SnapState<L>, SnapUpdate<L>>;
/// The wire message type of the whole stack.
pub type LatticeMsg<L> = GeneralizedMsg<SnapState<L>, SnapUpdate<L>>;

type Ctx<L> = Context<LatticeMsg<L>, Learned<L>>;
type InnerCtx<L> = Context<LatticeMsg<L>, SnapResp<Option<L>>>;

#[derive(Clone, Debug)]
enum Step<L> {
    /// Waiting for `update_i(v)` to finish.
    Updating { op: OpId, v: L },
    /// Waiting for `scan()` to finish.
    Scanning { op: OpId, v: L },
}

/// Lattice agreement at one process: the fix-point loop over an embedded
/// snapshot object. Segments hold `Option<L>` (`None` = nothing proposed
/// yet).
#[derive(Clone, Debug)]
pub struct LatticeNode<L>
where
    L: JoinSemilattice,
{
    machines: BTreeMap<u64, Step<L>>,
    routes: BTreeMap<u64, u64>,
    snap: SnapshotNode<Option<L>, SnapEngine<L>>,
    next_internal: u64,
    next_machine: u64,
    rounds: u64,
}

impl<L: JoinSemilattice> LatticeNode<L> {
    /// Creates the node for process `me` of `n` over a snapshot engine.
    pub fn new(me: ProcessId, n: usize, engine: SnapEngine<L>) -> Self {
        LatticeNode {
            machines: BTreeMap::new(),
            routes: BTreeMap::new(),
            snap: SnapshotNode::new(me, n, engine),
            next_internal: INTERNAL_OP_BASE,
            next_machine: 0,
            rounds: 0,
        }
    }

    /// Total update+scan rounds executed by proposals at this process
    /// (the ≤ n+1 bound is asserted in tests).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The embedded snapshot object (for assertions).
    pub fn snapshot(&self) -> &SnapshotNode<Option<L>, SnapEngine<L>> {
        &self.snap
    }

    fn inner_ctx(ctx: &Ctx<L>) -> InnerCtx<L> {
        let mut inner = Context::new(ctx.me(), ctx.n(), ctx.now());
        inner.set_tracing(ctx.tracing());
        inner
    }

    fn issue(&mut self, machine: u64, op: SnapOp<Option<L>>, ctx: &mut Ctx<L>) {
        let id = OpId(self.next_internal);
        self.next_internal += 1;
        self.routes.insert(id.0, machine);
        let mut inner = Self::inner_ctx(ctx);
        self.snap.on_invoke(id, op, &mut inner);
        self.pump(inner.take_effects(), ctx);
    }

    fn pump(&mut self, effects: Vec<Effect<LatticeMsg<L>, SnapResp<Option<L>>>>, ctx: &mut Ctx<L>) {
        for eff in effects {
            match eff {
                Effect::Send { to, msg } => ctx.send(to, msg),
                Effect::SendAll { msg, to_self } => ctx.send_all(msg, to_self),
                Effect::SetTimer { id, after } => ctx.set_timer(id, after),
                Effect::Complete { op, resp } => {
                    let machine = self.routes.remove(&op.0).expect("unknown internal snapshot op");
                    self.advance(machine, resp, ctx);
                }
                Effect::NoteRetransmit { count } => ctx.note_retransmit(count),
                Effect::Trace { kind, label, id } => ctx.emit_trace(kind, label, id),
            }
        }
    }

    fn advance(&mut self, machine: u64, resp: SnapResp<Option<L>>, ctx: &mut Ctx<L>) {
        let Some(step) = self.machines.remove(&machine) else { return };
        match (step, resp) {
            (Step::Updating { op, v }, SnapResp::Ack) => {
                self.machines.insert(machine, Step::Scanning { op, v });
                self.issue(machine, SnapOp::Scan, ctx);
            }
            (Step::Scanning { op, v }, SnapResp::View(view)) => {
                let joined = view.into_iter().flatten().fold(v.clone(), |acc, x| acc.join(&x));
                if joined == v {
                    ctx.complete(op, Learned(v));
                } else {
                    self.rounds += 1;
                    self.machines.insert(machine, Step::Updating { op, v: joined.clone() });
                    self.issue(machine, SnapOp::Update(Some(joined)), ctx);
                }
            }
            (step, resp) => unreachable!("mismatched step/response: {step:?} / {resp:?}"),
        }
    }
}

impl<L: JoinSemilattice> Protocol for LatticeNode<L> {
    type Msg = LatticeMsg<L>;
    type Op = Propose<L>;
    type Resp = Learned<L>;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let mut inner = Self::inner_ctx(ctx);
        self.snap.on_start(&mut inner);
        self.pump(inner.take_effects(), ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        let mut inner = Self::inner_ctx(ctx);
        self.snap.on_message(from, msg, &mut inner);
        self.pump(inner.take_effects(), ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let mut inner = Self::inner_ctx(ctx);
        self.snap.on_timer(id, &mut inner);
        self.pump(inner.take_effects(), ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        // The crash cancelled the embedded engine's timers; without this
        // forward they are never re-armed and proposals through it starve.
        let mut inner = Self::inner_ctx(ctx);
        self.snap.on_recover(&mut inner);
        self.pump(inner.take_effects(), ctx);
    }

    fn on_invoke(
        &mut self,
        op: OpId,
        Propose(x): Self::Op,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        let machine = self.next_machine;
        self.next_machine += 1;
        self.rounds += 1;
        self.machines.insert(machine, Step::Updating { op, v: x.clone() });
        self.issue(machine, SnapOp::Update(Some(x)), ctx);
    }
}

/// Builds one flooding-wrapped [`LatticeNode`] per process of a
/// generalized quorum system.
pub fn gqs_lattice_nodes<L>(
    gqs: &GeneralizedQuorumSystem,
    tick_interval: u64,
) -> Vec<Flood<LatticeNode<L>>>
where
    L: JoinSemilattice,
{
    let n = gqs.graph().len();
    (0..n)
        .map(|p| {
            let seg0: Segment<Option<L>> = Segment { value: None, seq: 0, view: vec![None; n] };
            let engine: SnapEngine<L> = GeneralizedQaf::new(
                gqs.reads().clone(),
                gqs.writes().clone(),
                RegMap::new(seg0),
                tick_interval,
            );
            Flood::new(LatticeNode::new(ProcessId(p), n, engine))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propose_and_learned_are_transparent() {
        let p = Propose(MaxLattice(3));
        assert_eq!(p.0, MaxLattice(3));
        let l = Learned(SetLattice::singleton(1u8));
        assert!(l.0.leq(&SetLattice::from_iter([1u8, 2])));
    }
}
