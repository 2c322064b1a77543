//! A 3-region WAN outage, traced end to end: the self-healing register
//! stack rides out a dark region while a Chrome-trace sink records every
//! send, drop, retransmission, retry timer and operation span.
//!
//! Nine processes in three 3-process regions (cliques bridged
//! gateway-to-gateway, `gqs::faults::regions`) run the reliable ABD
//! majority register, whose quorum engines re-send unanswered requests
//! on a fixed retry timer.
//! A fault script cuts region 1's entire inter-region boundary during
//! `[2000, 6000)` and heals it. One write+read pair is invoked at every
//! process before and during the outage; because the delivery layer
//! keeps retrying, region 1's mid-outage operations *park* against the
//! cut instead of being lost, then complete in a burst when the heal
//! lands. The attached [`ChromeSink`] captures the whole story:
//!
//! * `cut_down` / `cut_heal` instants bracket the outage on the gateway
//!   tracks;
//! * `drop_disconnected` instants pile up on region 1's processes while
//!   `retransmit` + `timer_set`/`timer_fire` show the retry timer
//!   ticking;
//! * `op…` async spans for parked operations stretch across the outage
//!   and close just after the heal, with the `qaf_get`/`qaf_set`
//!   protocol phases nested inside.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_outage
//! ```
//!
//! then load the written `trace_outage.json` into `chrome://tracing` or
//! <https://ui.perfetto.dev> (simulator ticks display as microseconds).

use gqs::core::{majority_system, ProcessId};
use gqs::faults::{regions, scenarios};
use gqs::registers::{reliable_abd_register_nodes, RegOp};
use gqs::simnet::{ChromeSink, Flood, SharedSink, SimConfig, SimTime, Simulation, Topology};
use gqs::workloads::Table;

/// Retransmit interval of the retrying quorum engines, in ticks.
const RETRY: u64 = 150;

fn main() {
    let (graph, layout) = regions::regions(3, 3);
    let n = graph.len();
    let outage = (SimTime(2_000), SimTime(6_000));
    println!(
        "== traced 3-region WAN (n = {n}), region 1 dark during [{}, {}) ==\n",
        outage.0, outage.1
    );

    let qs = majority_system(n).expect("majority quorums");
    let nodes: Vec<_> = reliable_abd_register_nodes::<u8, u64>(
        n,
        qs.reads().clone(),
        qs.writes().clone(),
        0,
        RETRY,
    )
    .into_iter()
    .map(Flood::new)
    .collect();
    let cfg = SimConfig {
        topology: Topology::from(graph.clone()),
        horizon: SimTime(1_000_000),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes);
    scenarios::region_outage(&layout, &graph, 1, outage.0, outage.1).apply(&mut sim);

    // The observability plane: one shared Chrome-trace sink sees the run.
    let sink = SharedSink::new(ChromeSink::new());
    sim.set_trace(Box::new(sink.clone()));

    // One write + one read per process, before and during the outage.
    let phases = [("before", 500u64), ("during", 3_000)];
    let mut ops = Vec::new(); // (phase, region, op id)
    for (phase, at) in phases {
        for p in 0..n {
            let region = layout.region_of(ProcessId(p));
            let w = sim.invoke_at(
                SimTime(at + p as u64 * 20),
                ProcessId(p),
                RegOp::Write { reg: 0, value: p as u64 },
            );
            let r = sim.invoke_at(
                SimTime(at + p as u64 * 20 + 10),
                ProcessId(p),
                RegOp::Read { reg: 0 },
            );
            ops.push((phase, region, w));
            ops.push((phase, region, r));
        }
    }
    sim.run_until_ops_complete();

    let mut t = Table::new(["phase", "region 0", "region 1 (dark)", "region 2"]);
    for (phase, _) in phases {
        let mut row = vec![phase.to_string()];
        for region in 0..3 {
            let mine: Vec<_> = ops
                .iter()
                .filter(|(ph, r, _)| *ph == phase && *r == region)
                .map(|(_, _, id)| *id)
                .collect();
            let records: Vec<_> =
                sim.history().ops().iter().filter(|rec| mine.contains(&rec.id)).collect();
            let done = records.iter().filter(|r| r.is_complete()).count();
            let lats: Vec<u64> = records.iter().filter_map(|r| r.latency()).collect();
            let lat = if lats.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0} ticks", lats.iter().sum::<u64>() as f64 / lats.len() as f64)
            };
            row.push(format!("{:3.0}% ({lat})", 100.0 * done as f64 / mine.len() as f64));
        }
        t.row(row);
    }
    println!("{t}");

    let stats = sim.stats();
    println!(
        "Every operation completes: region 1's mid-outage ops park against the \n\
         cut while the delivery layer retries ({} retransmissions; {} sends hit \n\
         the dark boundary), then finish in a burst when the heal lands — their \n\
         mean latency above is dominated by the wait for the cut to heal.",
        stats.retransmitted, stats.dropped_disconnected
    );

    let trace = sink.with(std::mem::take).into_string();
    let events = trace.matches("\"ph\":").count();
    std::fs::write("trace_outage.json", &trace).expect("write trace_outage.json");
    println!(
        "\nWrote trace_outage.json ({events} trace events): load it in \n\
         chrome://tracing or https://ui.perfetto.dev and look for the op spans \n\
         stretching across [2000, 6000) on region 1's tracks, the retransmit \n\
         ladders beneath them, and the cut_heal instants that release the burst."
    );
}
