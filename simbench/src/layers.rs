//! Per-layer metrics of the traced run: exact counts read from each cell's
//! `Report` and final `World`, host time per call of each layer's public
//! functions at the sizes the workloads produce, and the 2-shard engines
//! against the serial one on the largest broadcast cell.

use crate::workloads::{bcast_config, fault_compiler, FAULT_SCENARIOS};
use crate::{median, Bench, Metric};
use spin_apps::bcast::{self, BcastMode};
use spin_core::fault::CompiledFaults;
use spin_core::world::{ShardMode, SimOutput};
use spin_hpu::cam::Cam;
use spin_hpu::dma::{DmaEngine, DmaParams};
use spin_net::{NetParams, Network, Topology};
use spin_portals::me::{simple_me, ListKind, MatchList, MeOptions};
use spin_portals::types::ANY_PROCESS;
use spin_sim::engine::{EventQueue, QueueBackend};
use spin_sim::resource::IntervalResource;
use spin_sim::time::Time;
use std::hint::black_box;
use std::time::Instant;

/// Exact per-layer counts of one cell execution. Deterministic: a traced
/// run must read the same values at every iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    pub dma_writes: u64,
    pub dma_bytes: u64,
    pub dma_busy_ns: f64,
    pub handler_runs: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub cam_hits: u64,
    pub cam_misses: u64,
    pub nacks: u64,
    pub retransmits: u64,
    pub retransmitted_bytes: u64,
    /// Payload bytes the cell delivers when nothing is replayed.
    pub useful_bytes: u64,
    pub flow_control_events: u64,
    pub pt_reenables: u64,
    pub dead_link_drops: u64,
    pub reroutes: u64,
    /// `AppRun::messages`: all `run_app` exposes of its run.
    pub app_messages: u64,
}

impl LayerCounts {
    /// Read the counts of a finished run.
    pub fn of(out: &SimOutput, useful_bytes: u64) -> Self {
        let mut c = LayerCounts {
            useful_bytes,
            ..LayerCounts::default()
        };
        for s in &out.report.node_stats {
            c.dma_writes += s.dma_writes;
            c.dma_bytes += s.dma_bytes;
            c.handler_runs += s.handler_runs.0 + s.handler_runs.1 + s.handler_runs.2;
            c.admitted += s.hpu_admitted;
            c.rejected += s.hpu_rejected;
            c.nacks += s.recovery_nacks;
            c.retransmits += s.recovery_retransmits;
            c.retransmitted_bytes += s.retransmitted_bytes;
            c.flow_control_events += s.flow_control_events;
            c.pt_reenables += s.pt_reenables;
            c.dead_link_drops += s.drops_on_dead_link;
            c.reroutes += s.reroutes;
        }
        for node in &out.world.nodes {
            c.dma_busy_ns += node.nic.dma.busy_total().ns();
            c.cam_hits += node.nic.cam.hits();
            c.cam_misses += node.nic.cam.misses();
        }
        c
    }

    fn add(&mut self, o: &LayerCounts) {
        self.dma_writes += o.dma_writes;
        self.dma_bytes += o.dma_bytes;
        self.dma_busy_ns += o.dma_busy_ns;
        self.handler_runs += o.handler_runs;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.cam_hits += o.cam_hits;
        self.cam_misses += o.cam_misses;
        self.nacks += o.nacks;
        self.retransmits += o.retransmits;
        self.retransmitted_bytes += o.retransmitted_bytes;
        self.useful_bytes += o.useful_bytes;
        self.flow_control_events += o.flow_control_events;
        self.pt_reenables += o.pt_reenables;
        self.dead_link_drops += o.dead_link_drops;
        self.reroutes += o.reroutes;
        self.app_messages += o.app_messages;
    }
}

/// One iteration's counts summed over cells, after checking that every
/// traced iteration of every cell read exactly the same counts.
pub fn exact_counts(cells: &[crate::workloads::Cell]) -> Result<Vec<Metric>, String> {
    let mut total = LayerCounts::default();
    for cell in cells {
        let first = cell
            .counts
            .first()
            .ok_or_else(|| format!("cell {} was never traced", cell.name))?;
        if let Some(other) = cell.counts.iter().find(|c| *c != first) {
            return Err(format!(
                "cell {}: counts differ between iterations: {first:?} vs {other:?}",
                cell.name
            ));
        }
        total.add(first);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let t = &total;
    Ok(vec![
        ("hpu.dma_writes".into(), t.dma_writes as f64, "count"),
        ("hpu.dma_bytes".into(), t.dma_bytes as f64, "B"),
        ("hpu.dma_busy_ns".into(), t.dma_busy_ns, "ns"),
        ("hpu.handler_runs".into(), t.handler_runs as f64, "count"),
        ("hpu.admitted".into(), t.admitted as f64, "count"),
        (
            "hpu.admit_ratio".into(),
            ratio(t.admitted, t.admitted + t.rejected),
            "ratio",
        ),
        ("hpu.cam_hits".into(), t.cam_hits as f64, "count"),
        ("hpu.cam_misses".into(), t.cam_misses as f64, "count"),
        ("core.recovery_nacks".into(), t.nacks as f64, "count"),
        (
            "core.recovery_retransmits".into(),
            t.retransmits as f64,
            "count",
        ),
        (
            "core.retransmitted_bytes".into(),
            t.retransmitted_bytes as f64,
            "B",
        ),
        (
            "core.recovery_useful_ratio".into(),
            ratio(t.useful_bytes, t.useful_bytes + t.retransmitted_bytes),
            "ratio",
        ),
        (
            "core.flow_control_events".into(),
            t.flow_control_events as f64,
            "count",
        ),
        ("core.pt_reenables".into(), t.pt_reenables as f64, "count"),
        (
            "core.fault_dead_link_drops".into(),
            t.dead_link_drops as f64,
            "count",
        ),
        ("core.fault_reroutes".into(), t.reroutes as f64, "count"),
        ("app.messages".into(), t.app_messages as f64, "count"),
    ])
}

/// A small deterministic generator for microbenchmark inputs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Median over five batches of host ns per operation; `batch` runs `ops`
/// operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Host time per call of each layer's public functions.
pub fn timings(seed: u64) -> Vec<Metric> {
    let mut rng = XorShift::new(seed);
    let mut out: Vec<Metric> = Vec::new();

    // DMA writes at the Fig. 7a piece sizes (8 B to 4 KiB), issued in
    // time order like a payload handler's unpack loop.
    let mut dma = DmaEngine::new(DmaParams::integrated());
    let mut issue = 0u64;
    let n = 200_000;
    out.push((
        "hpu.dma_write_ns".into(),
        ns_per_op(n, || {
            for k in 0..n {
                issue += 5_000;
                black_box(dma.write(Time::from_ps(issue), 8 << (k % 10)));
            }
        }),
        "ns",
    ));

    // Interval reservations arriving mostly in order, some into gaps.
    let mut res = IntervalResource::new();
    let mut base = 0u64;
    out.push((
        "sim.interval_reserve_ns".into(),
        ns_per_op(n, || {
            for _ in 0..n {
                base += 10_000;
                let earliest = base.saturating_sub(rng.below(40_000));
                black_box(res.reserve(
                    Time::from_ps(earliest),
                    Time::from_ps(2_000 + rng.below(8_000)),
                ));
            }
        }),
        "ns",
    ));

    // Header matching that walks the whole priority list (match on the
    // last entry): 8 entries as in a halo exchange, 512 as a deep
    // posted-receive queue.
    for len in [8u64, 512] {
        let mut list = MatchList::new();
        for bits in 0..len {
            list.append(
                simple_me(bits, 0, ANY_PROCESS, 0, 4096, MeOptions::default()),
                ListKind::Priority,
            );
        }
        let ops = 2_000_000 / len;
        out.push((
            format!("portals.me_match_ns.len{len}"),
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(list.match_header(black_box(len - 1), 3, 4096, 0, 0));
                }
            }),
            "ns",
        ));
    }

    // Channel CAM: 256 live messages, lookups half hits, half misses.
    let mut cam: Cam<u64> = Cam::new(1024);
    for id in 0..256 {
        cam.install(id * 2, id)
            .expect("256 installs fit a 1024-entry CAM");
    }
    let n = 1_000_000;
    out.push((
        "hpu.cam_lookup_ns".into(),
        ns_per_op(n, || {
            for _ in 0..n {
                black_box(cam.lookup(rng.below(512)));
            }
        }),
        "ns",
    ));

    // Event queue hold model: pop the earliest event and post it again a
    // random delay later, at a steady depth. One op is one pop plus one post.
    for depth in [1_000u64, 64_000] {
        let mut q: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Calendar);
        for e in 0..depth {
            q.post_at(Time::from_ps(rng.below(1_000_000)), e);
        }
        let n = 500_000;
        out.push((
            format!("sim.queue_ns_per_op.d{}k", depth / 1000),
            ns_per_op(n, || {
                for _ in 0..n {
                    let (t, e) = q.pop_next().expect("the depth stays constant");
                    q.post_at(t + Time::from_ps(rng.below(1_000_000)), e);
                }
            }),
            "ns",
        ));
    }

    // Route lookup on the fault workload's fabric: 64 nodes, radix 8.
    let topo = Topology::fat_tree(64, 8);
    let net = Network::with_topology(topo.clone(), NetParams::paper());
    let n = 1_000_000;
    out.push((
        "net.route_ns".into(),
        ns_per_op(n, || {
            for _ in 0..n {
                let (a, b) = (rng.below(64) as u32, rng.below(64) as u32);
                black_box(net.base_latency(a, b));
            }
        }),
        "ns",
    ));

    // Fault path queries against the sPIN fault cell's compiled plan.
    let plan = fault_compiler(FAULT_SCENARIOS[1].1, seed)
        .and_then(|c| c.machine_config().map_err(|e| e.to_string()))
        .map(|cfg| cfg.faults.expect("the fault cell declares a plan"))
        .expect("the checked-in fault scenario parses");
    let faults = CompiledFaults::compile(&plan, &topo).expect("the checked-in plan compiles");
    out.push((
        "core.path_state_ns".into(),
        ns_per_op(n, || {
            for _ in 0..n {
                let (a, b) = (rng.below(64) as u32, rng.below(64) as u32);
                let t = Time::from_ns(rng.below(300_000));
                black_box(faults.path_state(a, b, t));
            }
        }),
        "ns",
    ));
    out
}

/// Rounds of the serial-vs-sharded comparison; each round runs the three
/// engines back to back, so host-speed drift hits all three alike.
const SHARD_ROUNDS: usize = 3;

/// Serial wall time over 2-shard wall time, exact and relaxed engines, on
/// the largest `bcast_scale` cell, as medians over [`SHARD_ROUNDS`]
/// interleaved rounds. Every exact run must reproduce the serial digest and
/// every relaxed run the delivered-message count.
pub fn shard_speedups(bench: &mut Bench) -> Result<Vec<Metric>, String> {
    let (bytes, ranks) = (64 * 1024, 4096);
    let seed = bench.seed;
    let builder = || bcast::builder(bcast_config(seed, bytes), BcastMode::Spin, bytes, ranks);
    // Time one run; keep only its digest and (packets, receipts) delivered,
    // so at most one 4096-rank output is alive at a time.
    let mut timed = |label: &str, run: &dyn Fn() -> SimOutput| {
        bench.attempted += 1;
        bench.arm(Some(format!("shard/{label}")));
        let t = Instant::now();
        let out = run();
        let secs = t.elapsed().as_secs_f64();
        bench.arm(None);
        let delivered = (
            out.report.net_packets,
            out.report.marks_labeled("received").len(),
        );
        (spin_scenario::digest(&out.report), delivered, secs)
    };
    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..SHARD_ROUNDS {
        let serial = timed("serial", &|| builder().run());
        let exact = timed("exact2", &|| {
            builder().run_with_shards_mode(2, ShardMode::Exact)
        });
        let relaxed = timed("relaxed2", &|| {
            builder().run_with_shards_mode(2, ShardMode::Relaxed)
        });
        if exact.0 != serial.0 {
            return Err("the exact 2-shard run does not reproduce the serial digest".into());
        }
        if relaxed.1 != serial.1 {
            return Err(format!(
                "the relaxed 2-shard run delivered {:?} (packets, receipts), serial {:?}",
                relaxed.1, serial.1
            ));
        }
        for (v, run) in secs.iter_mut().zip([serial, exact, relaxed]) {
            v.push(run.2);
        }
    }
    let [serial, exact, relaxed] = secs.map(|v| median(&v));
    Ok(vec![
        ("core.shard_exact2_speedup".into(), serial / exact, "x"),
        ("core.shard_relaxed2_speedup".into(), serial / relaxed, "x"),
    ])
}
