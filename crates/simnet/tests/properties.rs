//! Simulator-level properties: time monotonicity, conservation of
//! messages, determinism across seeds, and fairness (every correct-channel
//! message is eventually delivered at quiescence).
//!
//! Cases are driven by a seeded [`SplitMix64`] (the build has no network
//! access, so `proptest` is unavailable); every run replays the same cases.

use gqs_core::{Channel, NetworkGraph, ProcessId};
use gqs_simnet::trace::{JsonlSink, SharedSink};
use gqs_simnet::{
    Context, FailureSchedule, LatencyDist, LinkProfile, NetModel, OpId, Protocol, SimConfig,
    SimTime, Simulation, SplitMix64, TimerId, Topology,
};

/// A gossiping protocol: every process relays each first-seen token to a
/// pseudo-random subset of peers and records handler times.
#[derive(Clone, Default, Debug)]
struct Gossip {
    seen: Vec<u64>,
    times: Vec<u64>,
    relays: u64,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Op = u64;
    type Resp = ();

    fn on_start(&mut self, ctx: &mut Context<u64, ()>) {
        self.times.push(ctx.now().ticks());
    }

    fn on_message(&mut self, _from: ProcessId, token: u64, ctx: &mut Context<u64, ()>) {
        self.times.push(ctx.now().ticks());
        if !self.seen.contains(&token) {
            self.seen.push(token);
            self.relays += 1;
            // Deterministic pseudo-random fanout derived from the token.
            for p in 0..ctx.n() {
                if !(token.wrapping_mul(31).wrapping_add(p as u64)).is_multiple_of(3) {
                    ctx.send(ProcessId(p), token);
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<u64, ()>) {
        self.times.push(ctx.now().ticks());
    }

    fn on_invoke(&mut self, op: OpId, token: u64, ctx: &mut Context<u64, ()>) {
        self.times.push(ctx.now().ticks());
        ctx.broadcast(token);
        ctx.complete(op, ());
    }
}

fn run(seed: u64, n: usize, tokens: &[u64]) -> Simulation<Gossip> {
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, (0..n).map(|_| Gossip::default()).collect());
    for (i, &t) in tokens.iter().enumerate() {
        sim.invoke_at(SimTime(1 + i as u64 * 3), ProcessId(i % n), t);
    }
    sim.run();
    sim
}

const CASES: u64 = 48;

/// Virtual time never runs backwards at any process.
#[test]
fn handler_times_are_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(10_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let n = 2 + rng.range(0, 3) as usize;
        let sim = run(seed, n, &[7, 8, 9]);
        for p in 0..n {
            let times = &sim.node(ProcessId(p)).times;
            for w in times.windows(2) {
                assert!(w[0] <= w[1], "time went backwards at {p} (case {case})");
            }
        }
    }
}

/// Message conservation: sent = delivered + dropped when quiescent.
#[test]
fn message_conservation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(20_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let n = 2 + rng.range(0, 3) as usize;
        let sim = run(seed, n, &[1, 2]);
        let s = sim.stats();
        assert_eq!(
            s.sent,
            s.delivered + s.dropped_disconnected + s.dropped_crashed + s.dropped_lossy,
            "conservation violated (case {case})"
        );
    }
}

/// Conservation holds under the loss model too, and a substantial loss
/// rate actually exercises the `dropped_lossy` arm.
#[test]
fn message_conservation_with_loss() {
    let mut lossy_cases = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(25_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let n = 2 + rng.range(0, 3) as usize;
        let cfg = SimConfig { seed, loss: 0.3, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, (0..n).map(|_| Gossip::default()).collect());
        sim.invoke_at(SimTime(1), ProcessId(0), 1);
        sim.invoke_at(SimTime(4), ProcessId(1 % n), 2);
        sim.run();
        let s = sim.stats();
        assert_eq!(
            s.sent,
            s.delivered + s.dropped_disconnected + s.dropped_crashed + s.dropped_lossy,
            "conservation violated under loss (case {case})"
        );
        if s.dropped_lossy > 0 {
            lossy_cases += 1;
        }
    }
    assert!(lossy_cases > CASES / 2, "30% loss must drop messages in most cases");
}

/// Full determinism: identical seeds yield identical stats and final
/// protocol states.
#[test]
fn determinism() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(30_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let a = run(seed, 4, &[5, 6, 7]);
        let b = run(seed, 4, &[5, 6, 7]);
        assert_eq!(a.stats(), b.stats());
        for p in 0..4 {
            assert_eq!(&a.node(ProcessId(p)).times, &b.node(ProcessId(p)).times);
            assert_eq!(&a.node(ProcessId(p)).seen, &b.node(ProcessId(p)).seen);
        }
    }
}

/// Without failures, every broadcast token reaches every process
/// (reliable channels deliver everything by quiescence).
#[test]
fn reliable_channels_deliver_broadcasts() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(40_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let n = 2 + rng.range(0, 3) as usize;
        let sim = run(seed, n, &[42]);
        for p in 0..n {
            assert!(
                sim.node(ProcessId(p)).seen.contains(&42),
                "process {p} missed the token (case {case})"
            );
        }
    }
}

/// Crashing every process but the invoker leaves the token confined.
#[test]
fn crashes_confine_information() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(50_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, (0..3).map(|_| Gossip::default()).collect());
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(1), SimTime(0));
        sched.crash(ProcessId(2), SimTime(0));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), 9);
        sim.run();
        assert!(sim.node(ProcessId(0)).seen.contains(&9));
        assert!(sim.node(ProcessId(1)).seen.is_empty());
        assert!(sim.node(ProcessId(2)).seen.is_empty());
    }
}

/// Floods each token to every process, as one `send_all` fan-out
/// (`one_effect`) or as the equivalent loop of `send`s; the two must be
/// indistinguishable to the simulator.
#[derive(Clone, Debug)]
struct FanOut {
    one_effect: bool,
    seen: Vec<u64>,
    pending: Vec<(u64, OpId)>,
}

impl FanOut {
    fn fan(&self, token: u64, to_self: bool, ctx: &mut Context<u64, ()>) {
        if self.one_effect {
            ctx.send_all(token, to_self);
        } else {
            for p in 0..ctx.n() {
                if p != ctx.me().index() || to_self {
                    ctx.send(ProcessId(p), token);
                }
            }
        }
    }
}

impl Protocol for FanOut {
    type Msg = u64;
    type Op = u64;
    type Resp = ();

    fn on_start(&mut self, _ctx: &mut Context<u64, ()>) {}

    fn on_message(&mut self, _from: ProcessId, token: u64, ctx: &mut Context<u64, ()>) {
        if let Some(i) = self.pending.iter().position(|&(t, _)| t == token) {
            ctx.complete(self.pending.remove(i).1, ());
        }
        if !self.seen.contains(&token) {
            self.seen.push(token);
            self.fan(token, false, ctx);
            ctx.set_timer(TimerId(token), 40);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<u64, ()>) {
        self.fan(id.0, false, ctx);
    }

    fn on_invoke(&mut self, op: OpId, token: u64, ctx: &mut Context<u64, ()>) {
        self.pending.push((token, op));
        self.fan(token, true, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<u64, ()>) {
        for &token in &self.seen {
            self.fan(token, false, ctx);
        }
    }
}

/// A `send_all` fan-out is exactly the loop of `send`s in id order: over
/// complete, sparse, ring and regions topologies, with loss, down
/// intervals, crash/recover and both in-flight crash policies, the two
/// runs leave the same history, stats, RNG position and trace bytes.
#[test]
fn send_all_is_equivalent_to_the_per_destination_loop() {
    let mut fanned_out_drops = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(60_000 + case);
        let n = 3 + rng.range(0, 5) as usize;
        let topology = match case % 4 {
            0 => Topology::Complete,
            1 => {
                let mut g = NetworkGraph::empty(n);
                for a in 0..n {
                    for b in 0..n {
                        if a != b && rng.chance(0.4) {
                            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
                        }
                    }
                }
                Topology::Graph(g)
            }
            2 => Topology::Ring { n },
            _ => Topology::Regions { n, regions: 1 + rng.range(0, 2) as usize },
        };
        let lognormal = |median, max| {
            LinkProfile::symmetric(LatencyDist::Lognormal { median, sigma: 0.7, min: 1, max })
        };
        let net = rng.chance(0.5).then(|| NetModel {
            intra: lognormal(5, 400),
            gateway: lognormal(30, 2000),
            regions: None,
            synchrony: None,
        });
        let cfg = SimConfig {
            seed: rng.range(0, u64::MAX - 1),
            net,
            topology,
            loss: [0.0, 0.1, 0.3][rng.range(0, 2) as usize],
            drop_inflight_of_crashed: rng.chance(0.5),
            ..SimConfig::default()
        };
        let mut sched = FailureSchedule::none();
        for _ in 0..rng.range(0, 3) {
            let (a, b) = (rng.range(0, n as u64 - 1) as usize, rng.range(0, n as u64 - 1) as usize);
            if a != b {
                let ch = Channel::new(ProcessId(a), ProcessId(b));
                let at = rng.range(0, 60);
                sched.disconnect(ch, SimTime(at)).heal(ch, SimTime(at + rng.range(1, 80)));
            }
        }
        if rng.chance(0.5) {
            let p = ProcessId(rng.range(0, n as u64 - 1) as usize);
            let at = rng.range(0, 40);
            sched.crash(p, SimTime(at)).recover(p, SimTime(at + rng.range(1, 60)));
        }
        let ops: Vec<(u64, usize)> = (0..1 + rng.range(0, 3))
            .map(|i| (rng.range(1, 50), (i as usize * 2 + 1) % n))
            .collect();

        let run = |one_effect: bool| {
            let node = FanOut { one_effect, seen: Vec::new(), pending: Vec::new() };
            let mut sim = Simulation::new(cfg.clone(), vec![node; n]);
            let sink = SharedSink::new(JsonlSink::new());
            sim.set_trace(Box::new(sink.clone()));
            sim.apply_failures(&sched);
            for (token, &(at, p)) in ops.iter().enumerate() {
                sim.invoke_at(SimTime(at), ProcessId(p), token as u64);
            }
            sim.run();
            let trace = sink.with(|s| s.as_str().to_owned());
            (format!("{:?}", sim.history()), sim.stats(), sim.rng().clone(), trace)
        };
        let (looped, fanned) = (run(false), run(true));
        assert_eq!(looped.0, fanned.0, "history differs (case {case})");
        assert_eq!(looped.1, fanned.1, "stats differ (case {case})");
        assert_eq!(looped.2, fanned.2, "rng position differs (case {case})");
        assert!(looped.3 == fanned.3, "trace bytes differ (case {case})");
        let s = fanned.1;
        if s.dropped_disconnected > 0 && s.delivered > 0 {
            fanned_out_drops += 1;
        }
    }
    assert!(fanned_out_drops > CASES / 2, "most cases must mix dropped and queued copies");
}
