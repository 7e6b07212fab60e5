//! Benchmarks of the engine paths no perfbench workload runs: one MORE
//! transfer on each channel model (Gilbert–Elliott air) and on each
//! queue discipline (RED and CHOKe). perfbench times the scenario grid,
//! the traffic-model arrival path and the sinks.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh_sim::{ChannelSpec, QueueSpec, SimConfig, Simulator, SEC};
use mesh_topology::{generate, NodeId};
use more_core::{MoreAgent, MoreConfig};
use std::hint::black_box;

const PACKETS: usize = 64;

fn line() -> mesh_topology::Topology {
    generate::line(3, 0.85, 0.2, 25.0)
}

/// Channel-model cost: the same MORE transfer on static air (the
/// trait-dispatched default, which must stay at pre-channel speed) and
/// on bursty Gilbert–Elliott air (adds per-epoch state evolution).
fn bench_channel_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/channel");
    let topo = line();
    let specs = [
        ("static", ChannelSpec::Static),
        (
            "gilbert_elliott",
            ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
        ),
    ];
    for (name, spec) in specs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
                agent.add_flow(1, NodeId(0), NodeId(3), PACKETS);
                let mut sim = Simulator::with_channel(
                    topo.clone(),
                    SimConfig::default(),
                    &spec,
                    Box::new(agent),
                    1,
                );
                sim.kick(NodeId(0));
                sim.run_until(600 * SEC, |a| a.flows_done());
                black_box(sim.stats.total_tx())
            })
        });
    }
    group.finish();
}

/// Queue-subsystem cost: the same MORE transfer through
/// [`Simulator::with_queue`]. Unbounded installs no queue layer at all,
/// so the transmit path stays at pre-queue speed, while DropTail and
/// CHOKe pay for the pump loop, classification, and (for CHOKe) the
/// random peek. RED adds its early-drop draw.
fn bench_queue_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/queue");
    let topo = line();
    let specs = [
        ("unbounded", QueueSpec::Unbounded),
        ("droptail", QueueSpec::drop_tail(16)),
        ("red", QueueSpec::red(16)),
        ("choke", QueueSpec::choke(16)),
    ];
    for (name, spec) in specs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
                agent.add_flow(1, NodeId(0), NodeId(3), PACKETS);
                let mut sim = Simulator::with_queue(
                    topo.clone(),
                    SimConfig::default(),
                    &ChannelSpec::Static,
                    &spec,
                    Box::new(agent),
                    1,
                );
                sim.kick(NodeId(0));
                sim.run_until(600 * SEC, |a| a.flows_done());
                black_box(sim.stats.total_tx())
            })
        });
    }
    group.finish();
}

criterion_group!(
    scenario_engine,
    bench_channel_models,
    bench_queue_disciplines
);
criterion_main!(scenario_engine);
