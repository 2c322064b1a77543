//! The protocol interface: how distributed algorithms plug into the
//! simulator.
//!
//! A protocol is a deterministic state machine replicated at every process.
//! It reacts to four kinds of stimuli — startup, message delivery, timer
//! expiry and operation invocation — and emits *effects* (sends, timers,
//! operation completions) through a [`Context`]. The simulator (or a
//! middleware layer such as [`crate::flood::Flood`]) collects the effects
//! and turns them into future events.

use std::fmt;

use gqs_core::ProcessId;

use crate::time::SimTime;
use crate::topology::Peers;
use crate::trace::SpanKind;

/// Identifier of a client operation invocation, unique within a run.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of a protocol timer, chosen by the protocol itself.
///
/// Timers are one-shot; periodic behaviour is obtained by re-arming in
/// `on_timer` (exactly how the paper's `periodically` blocks are realized).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

/// An effect emitted by a protocol handler.
#[derive(Clone, Debug)]
pub enum Effect<M, R> {
    /// Send `msg` to `to` over the (unidirectional) channel. A send to
    /// every process is one [`Effect::SendAll`] instead.
    Send {
        /// Destination process (may equal the sender; self-messages are
        /// always delivered).
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Send `msg` to every process in id order, skipping the sender unless
    /// `to_self` — one effect for a whole fan-out. It is exactly
    /// equivalent to the loop of [`Effect::Send`]s to those processes: the
    /// simulator routes every copy in the same order, with the same
    /// counters, trace events, drop checks, loss and delay draws and
    /// queue order. The only difference is cost: `msg` is cloned only for
    /// copies that enter the event queue, and the last of them takes it
    /// by move, so copies dropped on absent, down or lossy channels are
    /// never built. Middleware must pass it through unchanged (via
    /// [`Context::send_all`]), or expand it into per-destination sends.
    SendAll {
        /// The message.
        msg: M,
        /// Whether the sender gets a copy too (delivered reliably, like
        /// every self-send).
        to_self: bool,
    },
    /// Arm a one-shot timer that fires `after` time units from now.
    SetTimer {
        /// Protocol-chosen identifier, passed back to `on_timer`.
        id: TimerId,
        /// Delay in time units. The simulator clamps it to at least 1 so
        /// that virtual time always advances between firings (a
        /// same-instant timer would let a re-arming protocol livelock the
        /// event loop).
        after: u64,
    },
    /// Complete a pending client operation with a response.
    Complete {
        /// The operation being completed.
        op: OpId,
        /// Its response value.
        resp: R,
    },
    /// Account `count` retransmitted messages in the run's
    /// [`crate::NetStats`]. Bookkeeping only — the resent copies travel as
    /// ordinary [`Effect::Send`]s; this effect lets protocols that re-send
    /// unanswered requests surface their overhead in the simulator-wide
    /// statistics. Middleware must pass it through.
    NoteRetransmit {
        /// Number of retransmissions to account.
        count: u64,
    },
    /// A protocol-emitted trace marker (span start/end or instant) for an
    /// attached [`TraceSink`](crate::trace::TraceSink). Emitted only while
    /// tracing is on (see [`Context::span_start`]); pure observability —
    /// it changes no simulation state, consumes no randomness, and
    /// middleware must pass it through via [`Context::emit_trace`].
    Trace {
        /// Span start / end / instant.
        kind: SpanKind,
        /// Static label (keep to `[A-Za-z0-9_]`; exported verbatim).
        label: &'static str,
        /// Protocol-chosen correlation id (op token, view number, …).
        id: u64,
    },
}

/// Handler context: identifies the process and collects effects.
///
/// Middleware that wraps a protocol (e.g. flooding) creates inner contexts
/// with [`Context::new`] and drains them with [`Context::take_effects`].
#[derive(Debug)]
pub struct Context<M, R> {
    me: ProcessId,
    n: usize,
    now: SimTime,
    peers: Peers,
    effects: Vec<Effect<M, R>>,
    /// Whether a trace sink is attached to the driving simulation. Gates
    /// the span API so untraced runs push (and allocate) nothing.
    tracing: bool,
}

impl<M, R> Context<M, R> {
    /// Creates a fresh context for a handler invocation at `me` in a
    /// system of `n` processes at time `now`, with the complete-graph
    /// [`Peers`] view.
    ///
    /// Middleware building *inner* contexts (e.g. [`crate::Flood`]) wants
    /// exactly this: flooding restores logical completeness, so the
    /// wrapped protocol legitimately sees everyone as a peer. The
    /// simulator itself builds topology-accurate contexts with
    /// [`Context::with_peers`].
    pub fn new(me: ProcessId, n: usize, now: SimTime) -> Self {
        Context { me, n, now, peers: Peers::all(n), effects: Vec::new(), tracing: false }
    }

    /// Creates a context whose [`Context::peers`] view reflects an
    /// explicit topology (what [`crate::Simulation`] hands to handlers).
    pub fn with_peers(me: ProcessId, n: usize, now: SimTime, peers: Peers) -> Self {
        Context { me, n, now, peers, effects: Vec::new(), tracing: false }
    }

    /// The process executing the handler.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The process's view of the communication graph: out-neighbour
    /// iteration in O(degree) with no `ProcessSet` (and hence no
    /// `MAX_PROCESSES` bound). Scale-oriented protocols address peers
    /// through this instead of `0..n` loops.
    pub fn peers(&self) -> &Peers {
        &self.peers
    }

    /// Sends `msg` to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every process, **including the sender** — the
    /// paper's `send ... to all`. (A process is always connected to
    /// itself; the self-copy is delivered reliably.)
    ///
    /// This pushes one [`Effect::Send`] per process, so middleware and
    /// tests see each destination. [`Context::send_all`] is the same
    /// fan-out as one effect, without building the copies the simulator
    /// drops.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for p in 0..self.n {
            self.send(ProcessId(p), msg.clone());
        }
    }

    /// Sends `msg` to every process, the sender included iff `to_self`,
    /// as one [`Effect::SendAll`].
    pub fn send_all(&mut self, msg: M, to_self: bool) {
        self.effects.push(Effect::SendAll { msg, to_self });
    }

    /// Arms a one-shot timer.
    pub fn set_timer(&mut self, id: TimerId, after: u64) {
        self.effects.push(Effect::SetTimer { id, after });
    }

    /// Completes a pending operation.
    pub fn complete(&mut self, op: OpId, resp: R) {
        self.effects.push(Effect::Complete { op, resp });
    }

    /// Accounts `count` retransmitted messages in the run's statistics
    /// (see [`Effect::NoteRetransmit`]). Call once per resent copy,
    /// alongside the [`Context::send`] that carries it.
    pub fn note_retransmit(&mut self, count: u64) {
        if count > 0 {
            self.effects.push(Effect::NoteRetransmit { count });
        }
    }

    /// Whether a trace sink is listening (set by the simulator, inherited
    /// by middleware inner contexts). The span API is a no-op while this
    /// is `false`, so protocols may call it unconditionally.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Turns trace-marker collection on or off (simulator / middleware
    /// internal; protocols only read the flag through
    /// [`Context::tracing`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Opens a protocol span `(label, id)` — e.g. a quorum-access phase —
    /// if tracing is on; free otherwise. Close it with a
    /// [`Context::span_end`] of the same `(label, id)`.
    pub fn span_start(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::Start, label, id });
        }
    }

    /// Closes the protocol span `(label, id)` if tracing is on.
    pub fn span_end(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::End, label, id });
        }
    }

    /// Emits a point-in-time protocol marker (e.g. `decide`) if tracing
    /// is on; free otherwise.
    pub fn trace_instant(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::Instant, label, id });
        }
    }

    /// Re-emits a trace marker verbatim — the middleware pass-through for
    /// [`Effect::Trace`]. Unconditional: the gating already happened when
    /// the inner protocol emitted the marker.
    pub fn emit_trace(&mut self, kind: SpanKind, label: &'static str, id: u64) {
        self.effects.push(Effect::Trace { kind, label, id });
    }

    /// Drains the collected effects (middleware entry point).
    pub fn take_effects(&mut self) -> Vec<Effect<M, R>> {
        std::mem::take(&mut self.effects)
    }

    /// Number of effects collected so far.
    pub fn effect_count(&self) -> usize {
        self.effects.len()
    }
}

/// A distributed protocol: one instance runs at every process.
///
/// All handlers must be deterministic; randomness, if needed, belongs in
/// protocol state seeded at construction. This is what makes simulator
/// runs reproducible.
///
/// # The snapshot contract
///
/// `Protocol: Clone` is the simulator's snapshot hook: **a clone must be a
/// complete, independent copy of everything the handlers read or write** —
/// pending operations, retransmission queues, dedup sets, logical clocks,
/// seeded RNG state, view synchronizers, all of it. Given that,
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint) /
/// [`restore`](crate::Simulation::restore) can capture a whole run
/// mid-flight and resume it bit-identically (fork replay). `#[derive(Clone)]`
/// on an owned-data struct satisfies the contract automatically; what
/// violates it is shared mutable state (`Rc<RefCell<_>>`, interior
/// mutability) leaking between a clone and its original — don't.
pub trait Protocol: Clone {
    /// Messages exchanged between processes.
    type Msg: Clone + fmt::Debug;
    /// Client operations (e.g. `Read`, `Write(v)`, `Propose(x)`).
    type Op: Clone + fmt::Debug;
    /// Operation responses.
    type Resp: Clone + fmt::Debug;

    /// Called once at time zero, before any other event.
    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    );

    /// Called when a timer armed by this process fires.
    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when a client invokes an operation at this process. The
    /// protocol completes it later via [`Context::complete`].
    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when this process recovers from a crash (a scheduled
    /// [`crate::FailureSchedule::recover`]). State survives the crash;
    /// timers armed before it do not, and messages that arrived while
    /// down were lost. The default rejoins silently — override to re-arm
    /// timers or re-announce state.
    fn on_recover(&mut self, _ctx: &mut Context<Self::Msg, Self::Resp>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_effects_in_order() {
        let mut ctx: Context<&'static str, ()> = Context::new(ProcessId(1), 3, SimTime(5));
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.now(), SimTime(5));
        ctx.send(ProcessId(0), "x");
        ctx.set_timer(TimerId(7), 10);
        ctx.complete(OpId(1), ());
        assert_eq!(ctx.effect_count(), 3);
        let effects = ctx.take_effects();
        assert!(matches!(effects[0], Effect::Send { to: ProcessId(0), msg: "x" }));
        assert!(matches!(effects[1], Effect::SetTimer { id: TimerId(7), after: 10 }));
        assert!(matches!(effects[2], Effect::Complete { op: OpId(1), .. }));
        assert_eq!(ctx.effect_count(), 0);
    }

    #[test]
    fn broadcast_includes_self() {
        let mut ctx: Context<u8, ()> = Context::new(ProcessId(1), 3, SimTime::ZERO);
        ctx.broadcast(9);
        let effects = ctx.take_effects();
        let targets: Vec<usize> = effects
            .iter()
            .map(|e| match e {
                Effect::Send { to, .. } => to.index(),
                _ => panic!("only sends expected"),
            })
            .collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn span_api_is_gated_on_the_tracing_flag() {
        let mut ctx: Context<u8, ()> = Context::new(ProcessId(0), 2, SimTime::ZERO);
        ctx.span_start("qaf_get", 1);
        ctx.span_end("qaf_get", 1);
        ctx.trace_instant("decide", 2);
        assert_eq!(ctx.effect_count(), 0, "tracing off: the span API pushes nothing");
        ctx.set_tracing(true);
        assert!(ctx.tracing());
        ctx.span_start("qaf_get", 1);
        ctx.trace_instant("decide", 2);
        let effects = ctx.take_effects();
        assert!(matches!(
            effects[0],
            Effect::Trace { kind: SpanKind::Start, label: "qaf_get", id: 1 }
        ));
        assert!(matches!(
            effects[1],
            Effect::Trace { kind: SpanKind::Instant, label: "decide", id: 2 }
        ));
    }

    #[test]
    fn ids_display() {
        assert_eq!(OpId(3).to_string(), "op3");
        assert_eq!(TimerId(4).to_string(), "timer4");
    }
}
