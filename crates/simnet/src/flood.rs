//! Flooding middleware: transitive connectivity by forwarding.
//!
//! The paper assumes WLOG that the connectivity relation of `G \ f` is
//! transitive: "if not, transitivity can be easily simulated by having all
//! processes forward every received message" (§5). [`Flood`] is exactly
//! that construction: it wraps any [`Protocol`], envelopes each logical
//! message with a unique id, and has every process re-broadcast each
//! first-seen envelope to all. A message from `p` to `q` is then delivered
//! whenever a directed path of correct channels from `p` to `q` exists —
//! at an `O(n²)` message cost per logical message, which the experiment
//! tables report explicitly.
//!
//! Both fan-outs — an origin's envelope and every relay of it — leave
//! [`Flood`] as one [`Effect::SendAll`], not `n` separate sends. The
//! simulator expands it into per-destination copies in id order, with
//! exactly the routing of the equivalent loop of [`Effect::Send`]s, and
//! clones the envelope only for copies that enter its event queue. On a
//! sparse topology most relay copies go to channels that do not exist;
//! those, like copies lost or sent into a down channel, are counted,
//! traced and dropped without ever being built.

use std::collections::BTreeSet;

use gqs_core::ProcessId;

use crate::protocol::{Context, Effect, OpId, Protocol, TimerId};

/// The envelope carried by the flooding layer.
#[derive(Clone, Debug)]
pub struct FloodMsg<M> {
    /// The process that originated the logical message.
    pub origin: ProcessId,
    /// Origin-local sequence number; `(origin, seq)` is globally unique.
    pub seq: u64,
    /// The logical destination (`None` = logical broadcast to all).
    pub dest: Option<ProcessId>,
    /// The wrapped protocol message.
    pub payload: M,
}

/// Wraps a protocol so that logical messages travel along directed *paths*
/// of correct channels rather than single channels.
///
/// A first-seen envelope is relayed as one [`Effect::SendAll`] that skips
/// this process, so the envelope is moved, not cloned, into the effect;
/// the simulator clones it once per further copy it queues. If the
/// envelope is addressed here, only its payload is cloned, once, for the
/// inner handler, whose effects follow the relay. Inner sends become
/// envelopes fanned out to everyone, this process included.
///
/// # Examples
///
/// ```
/// use gqs_simnet::{Flood, SimConfig, Simulation};
/// # use gqs_simnet::{Context, OpId, Protocol, TimerId};
/// # use gqs_core::ProcessId;
/// # #[derive(Clone, Default, Debug)] struct P;
/// # impl Protocol for P {
/// #     type Msg = u8; type Op = (); type Resp = ();
/// #     fn on_start(&mut self, _: &mut Context<u8, ()>) {}
/// #     fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Context<u8, ()>) {}
/// #     fn on_timer(&mut self, _: TimerId, _: &mut Context<u8, ()>) {}
/// #     fn on_invoke(&mut self, op: OpId, _: (), ctx: &mut Context<u8, ()>) { ctx.complete(op, ()) }
/// # }
/// let nodes: Vec<Flood<P>> = (0..3).map(|_| Flood::new(P)).collect();
/// let sim = Simulation::new(SimConfig::default(), nodes);
/// ```
#[derive(Clone, Debug)]
pub struct Flood<P: Protocol> {
    inner: P,
    next_seq: u64,
    /// Envelopes already relayed. A `BTreeSet` rather than a hash set so
    /// the state has one canonical representation: checkpoint oracles
    /// compare node state byte-for-byte via `Debug`, and per-instance
    /// hasher seeds would make identical sets format differently.
    seen: BTreeSet<(ProcessId, u64)>,
    relayed: u64,
}

impl<P: Protocol> Flood<P> {
    /// Wraps `inner` in a flooding layer.
    pub fn new(inner: P) -> Self {
        Flood { inner, next_seq: 0, seen: BTreeSet::new(), relayed: 0 }
    }

    /// The wrapped protocol (for assertions on its state).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Number of envelopes this process has relayed (forwarding cost).
    pub fn relayed(&self) -> u64 {
        self.relayed
    }

    /// Translates the inner protocol's effects: each logical send becomes
    /// a flooded envelope; timers and completions pass through.
    fn translate(
        &mut self,
        inner_ctx: &mut Context<P::Msg, P::Resp>,
        ctx: &mut Context<FloodMsg<P::Msg>, P::Resp>,
    ) {
        for eff in inner_ctx.take_effects() {
            match eff {
                Effect::Send { to, msg } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let env = FloodMsg { origin: ctx.me(), seq, dest: Some(to), payload: msg };
                    // The fan-out includes self, so the origin's own copy
                    // is delivered through the regular path as well.
                    ctx.send_all(env, true);
                }
                Effect::SendAll { msg, to_self } => {
                    // One envelope per destination, exactly as the loop
                    // of sends it stands for.
                    for p in 0..ctx.n() {
                        let to = ProcessId(p);
                        if to != ctx.me() || to_self {
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            let payload = msg.clone();
                            let env = FloodMsg { origin: ctx.me(), seq, dest: Some(to), payload };
                            ctx.send_all(env, true);
                        }
                    }
                }
                Effect::SetTimer { id, after } => ctx.set_timer(id, after),
                Effect::Complete { op, resp } => ctx.complete(op, resp),
                Effect::NoteRetransmit { count } => ctx.note_retransmit(count),
                Effect::Trace { kind, label, id } => ctx.emit_trace(kind, label, id),
            }
        }
    }

    fn inner_ctx(ctx: &Context<FloodMsg<P::Msg>, P::Resp>) -> Context<P::Msg, P::Resp> {
        let mut inner = Context::new(ctx.me(), ctx.n(), ctx.now());
        inner.set_tracing(ctx.tracing());
        inner
    }
}

impl<P: Protocol> Protocol for Flood<P> {
    type Msg = FloodMsg<P::Msg>;
    type Op = P::Op;
    type Resp = P::Resp;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let mut inner_ctx = Self::inner_ctx(ctx);
        self.inner.on_start(&mut inner_ctx);
        self.translate(&mut inner_ctx, ctx);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        env: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        if !self.seen.insert((env.origin, env.seq)) {
            return; // already relayed and (if addressed to us) delivered
        }
        // Relay to everyone else first, as one fan-out: the simulator
        // builds only the copies it queues. A payload addressed here is
        // cloned once for the inner handler, whose effects follow the relay.
        self.relayed += 1;
        let origin = env.origin;
        let mine = env.dest.is_none_or(|d| d == ctx.me()).then(|| env.payload.clone());
        ctx.send_all(env, false);
        if let Some(payload) = mine {
            let mut inner_ctx = Self::inner_ctx(ctx);
            self.inner.on_message(origin, payload, &mut inner_ctx);
            self.translate(&mut inner_ctx, ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let mut inner_ctx = Self::inner_ctx(ctx);
        self.inner.on_timer(id, &mut inner_ctx);
        self.translate(&mut inner_ctx, ctx);
    }

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let mut inner_ctx = Self::inner_ctx(ctx);
        self.inner.on_invoke(op, body, &mut inner_ctx);
        self.translate(&mut inner_ctx, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        // The dedup set survives the crash on purpose: envelopes relayed
        // before the crash are not re-delivered to the inner protocol.
        let mut inner_ctx = Self::inner_ctx(ctx);
        self.inner.on_recover(&mut inner_ctx);
        self.translate(&mut inner_ctx, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FailureSchedule, SimConfig, Simulation, StopReason};
    use crate::time::SimTime;
    use gqs_core::Channel;

    /// Sends one message to a target; the target completes an op when it
    /// arrives.
    #[derive(Clone, Default, Debug)]
    struct OneShot {
        pending: Option<OpId>,
        received_from: Vec<ProcessId>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Hello,
        Ack,
    }

    impl Protocol for OneShot {
        type Msg = Msg;
        type Op = ProcessId;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
            match msg {
                Msg::Hello => {
                    self.received_from.push(from);
                    ctx.send(from, Msg::Ack);
                }
                Msg::Ack => {
                    if let Some(op) = self.pending.take() {
                        ctx.complete(op, ());
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Msg, ()>) {}

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, ()>) {
            self.pending = Some(op);
            ctx.send(target, Msg::Hello);
        }
    }

    fn flooded(n: usize) -> Simulation<Flood<OneShot>> {
        let nodes = (0..n).map(|_| Flood::new(OneShot::default())).collect();
        Simulation::new(SimConfig::default(), nodes)
    }

    /// Disconnect both direct channels between 0 and 2 but keep the relay
    /// through 1: flooding must still deliver, request AND reply.
    #[test]
    fn flooding_routes_around_disconnected_channels() {
        let mut sim = flooded(3);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(2)), SimTime::ZERO);
        sched.disconnect(Channel::new(ProcessId(2), ProcessId(0)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
        // The logical sender seen by the target is the origin, not the relay.
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
    }

    /// With no path (all channels into 2 cut), delivery must NOT happen.
    #[test]
    fn flooding_cannot_cross_a_full_cut() {
        let mut sim = flooded(3);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(2)), SimTime::ZERO);
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(2)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        sim.run();
        assert!(!sim.history().ops()[0].is_complete());
        assert!(sim.node(ProcessId(2)).inner().received_from.is_empty());
    }

    /// Messages are delivered exactly once despite O(n²) copies.
    #[test]
    fn dedup_delivers_exactly_once() {
        let mut sim = flooded(4);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(3));
        sim.run_until_ops_complete();
        assert_eq!(sim.node(ProcessId(3)).inner().received_from.len(), 1);
    }

    /// The reply path may differ from the request path (asymmetric cuts).
    #[test]
    fn asymmetric_paths_work() {
        // 0 -> 2 direct is cut; 2 -> 0 direct is cut; 0 -> 1 -> 2 for the
        // request and 2 -> 3 -> 0 for the reply.
        let mut sim = flooded(4);
        let mut sched = FailureSchedule::none();
        for (a, b) in [(0, 2), (2, 0), (3, 2), (2, 1), (1, 0), (0, 3)] {
            sched.disconnect(Channel::new(ProcessId(a), ProcessId(b)), SimTime::ZERO);
        }
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
    }

    /// Over a sparse topology, flooding restores *logical* connectivity:
    /// a unidirectional ring has no direct channel from 0 to 2, but the
    /// envelope hops 0 → 1 → 2 and the reply wraps 2 → 0.
    #[test]
    fn flooding_restores_connectivity_over_sparse_topologies() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        let mut ring = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            ring.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(ring), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
        // The logical sender is still the origin, not the relay.
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
        // Direct sends on absent channels were attempted and dropped.
        assert!(sim.stats().dropped_disconnected > 0);
    }

    /// A disconnection *within* a sparse topology can still be routed
    /// around if the graph leaves another directed path.
    #[test]
    fn flooding_routes_around_disconnections_in_sparse_graphs() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // Diamond: 0 -> {1, 2} -> 3 -> 0. Disconnect (1, 3); the request
        // still flows 0 -> 2 -> 3 and the reply 3 -> 0.
        let mut g = NetworkGraph::empty(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..4).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(3)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(3));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    }

    /// When the sparse graph leaves no directed path, flooding cannot
    /// invent one.
    #[test]
    fn flooding_cannot_cross_a_topology_cut() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // A line 0 -> 1 -> 2 with no way back: the request arrives at 2,
        // the reply can never return to 0.
        let mut g = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 2)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        sim.run();
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
        assert!(!sim.history().ops()[0].is_complete(), "no return path exists");
    }

    /// Like [`OneShot`] but re-sends its Hello every 30 ticks until acked
    /// — the minimal protocol whose liveness survives a flapping link.
    #[derive(Clone, Default, Debug)]
    struct Retry {
        pending: Option<(OpId, ProcessId)>,
    }

    impl Protocol for Retry {
        type Msg = Msg;
        type Op = ProcessId;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
            match msg {
                Msg::Hello => ctx.send(from, Msg::Ack),
                Msg::Ack => {
                    if let Some((op, _)) = self.pending.take() {
                        ctx.complete(op, ());
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<Msg, ()>) {
            if let Some((_, target)) = self.pending {
                ctx.send(target, Msg::Hello);
                ctx.set_timer(TimerId(0), 30);
            }
        }

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, ()>) {
            self.pending = Some((op, target));
            ctx.send(target, Msg::Hello);
            ctx.set_timer(TimerId(0), 30);
        }
    }

    /// Regression for healed-channel accounting: sends through a down
    /// interval count as `dropped_disconnected`, and a retrying flood over
    /// the flapping link *eventually delivers* once the link heals.
    #[test]
    fn flood_over_a_flapping_link_eventually_delivers_post_heal() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // Line topology 0 <-> 1 <-> 2: every path from 0 runs over (0,1).
        let mut g = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(Retry::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        // (0,1) is down during [0, 100): the first retries all drop.
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        sched.disconnect(ch, SimTime::ZERO).heal(ch, SimTime(100));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete, "the op must complete after the heal");
        let done = sim.history().ops()[0].completed_at().unwrap();
        assert!(done >= SimTime(100), "completion cannot precede the heal, got {done:?}");
        let stats = sim.stats();
        assert!(stats.dropped_disconnected > 0, "in-window sends must be counted as dropped");
        assert!(stats.delivered > 0, "post-heal sends must be delivered");
    }

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn clones() -> u64 {
        CLONES.with(|c| c.get())
    }

    /// A payload that counts its clones.
    #[derive(Debug)]
    struct Counted;

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted
        }
    }

    /// Posts one [`Counted`] to the target and counts arrivals.
    #[derive(Clone, Default, Debug)]
    struct Post {
        got: u64,
    }

    impl Protocol for Post {
        type Msg = Counted;
        type Op = ProcessId;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Counted, ()>) {}

        fn on_message(&mut self, _from: ProcessId, _msg: Counted, _ctx: &mut Context<Counted, ()>) {
            self.got += 1;
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Counted, ()>) {}

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Counted, ()>) {
            ctx.send(target, Counted);
            ctx.complete(op, ());
        }
    }

    /// On a ring every relay queues copies for its two neighbours only;
    /// the other three channels are absent. The relay clones the payload
    /// at most twice (one copy moves, plus the inner handler's copy at
    /// the destination), never once per process.
    #[test]
    fn relays_clone_only_the_copies_they_queue() {
        use crate::topology::Topology;
        let n = 6;
        let cfg = SimConfig { topology: Topology::Ring { n }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, (0..n).map(|_| Flood::new(Post::default())).collect());
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(3));
        let relayed = |sim: &Simulation<Flood<Post>>| -> u64 {
            (0..n).map(|p| sim.node(ProcessId(p)).relayed()).sum()
        };
        let mut relays = 0;
        loop {
            let (clones_before, relays_before) = (clones(), relayed(&sim));
            if !sim.step() {
                break;
            }
            let cloned = clones() - clones_before;
            assert!(cloned <= 2, "one handler call cloned the payload {cloned} times");
            relays += relayed(&sim) - relays_before;
        }
        assert_eq!(relays, n as u64, "every process relays the envelope once");
        assert_eq!(sim.node(ProcessId(3)).inner().got, 1);
        assert!(sim.stats().dropped_disconnected > 0);
    }

    #[test]
    fn relay_counters_track_forwarding_cost() {
        let mut sim = flooded(3);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run_until_ops_complete();
        let total: u64 = (0..3).map(|p| sim.node(ProcessId(p)).relayed()).sum();
        assert!(total >= 2, "every process should relay each envelope once");
    }
}
