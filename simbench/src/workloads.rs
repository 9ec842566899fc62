//! The four workloads, their cells, and each cell's output check.
//!
//! A cell is one call into a simulator entry point at fixed parameters. Its
//! set-up (scenario parse and compile, `World::new` for its configuration)
//! and its run are timed separately; its check runs outside both timers.

use crate::layers::LayerCounts;
use crate::{IterTimes, Trace};
use spin_apps::bcast::{self, BcastMode};
use spin_apps::datatypes::{self, DdtMode, VectorDt};
use spin_core::config::{MachineConfig, NicKind};
use spin_core::world::{SimOutput, World};
use spin_scenario::{Scenario, ScenarioCompiler};
use spin_trace::apps::{run_app, AppKind};
use std::time::Instant;

/// The fault-recovery cells, compiled from scenario JSON at every iteration.
pub const FAULT_SCENARIOS: [(&str, &str); 2] = [
    (
        "rdma_flaps_loss",
        include_str!("../scenarios/rdma_flaps_loss.json"),
    ),
    (
        "spin_spine_degrade",
        include_str!("../scenarios/spin_spine_degrade.json"),
    ),
];

/// Fig. 7a block sizes: 8 B to 4 KiB.
const DDT_BLOCKS: [usize; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
const DDT_TOTAL: usize = 4 << 20;

/// Pinned Fig. 7a completion times (ps) per block size, in the order
/// RDMA(int), sPIN(int), RDMA(dis), sPIN(dis). The model has no random
/// input on this path, so they hold at every seed.
const DDT_PINNED_PS: [[u64; 4]; 10] = [
    [1_761_917_912, 1_470_027_568, 1_762_152_084, 1_470_061_872], // 8 B
    [923_057_112, 736_024_624, 923_291_284, 736_058_672],         // 16 B
    [503_626_712, 369_023_024, 503_860_884, 369_057_600],         // 32 B
    [293_911_512, 185_522_288, 294_145_684, 185_557_993],         // 64 B
    [189_053_912, 93_771_888, 189_288_084, 93_810_014],           // 128 B
    [136_625_112, 84_331_104, 136_859_284, 84_365_280],           // 256 B
    [136_281_048, 84_241_512, 136_515_220, 84_283_480],           // 512 B
    [136_281_048, 84_196_712, 136_515_220, 95_802_416],           // 1024 B
    [136_281_048, 84_174_312, 136_515_220, 84_208_484],           // 2048 B
    [136_281_048, 84_163_112, 136_515_220, 84_197_284],           // 4096 B
];

/// Table 5c rows: application, ranks.
const APPS: [(AppKind, u32); 4] = [
    (AppKind::Milc, 64),
    (AppKind::Pop, 64),
    (AppKind::Comd, 72),
    (AppKind::Cloverleaf, 72),
];
const APP_ITERS: u32 = 12;

/// Pinned Table 5c replays: (runtime ps, messages) with host matching and
/// with offloaded matching, per row of [`APPS`]. Seed-independent.
const APP_PINNED: [[(u64, u64); 2]; 4] = [
    [(1_776_712_472, 64_512), (1_694_105_000, 64_512)],
    [(210_305_000, 3_072), (210_305_000, 3_072)],
    [(1_244_203_092, 51_840), (1_178_105_000, 51_840)],
    [(838_343_464, 27_648), (801_425_000, 27_648)],
];

/// Fig. 5a: ranks and payloads.
const BCAST_RANKS: [u32; 3] = [1024, 2048, 4096];
const BCAST_BYTES: [usize; 2] = [8, 64 * 1024];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7a strided receive: HPU handlers, DMA, interval resources.
    DdtUnpack,
    /// Table 5c application replays: Portals matching, CAM, per-packet path.
    AppReplay,
    /// Fig. 5a binomial broadcast at scale: world size, triggered counters.
    BcastScale,
    /// Fault-plan saturation runs: recovery, faults, scenario compiler.
    FaultRecovery,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DdtUnpack,
        Workload::AppReplay,
        Workload::BcastScale,
        Workload::FaultRecovery,
    ];

    /// The workload `--workload` names.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload {name:?}; expected one of {}",
                    Self::ALL.map(Workload::name).join(", ")
                )
            })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DdtUnpack => "ddt_unpack",
            Workload::AppReplay => "app_replay",
            Workload::BcastScale => "bcast_scale",
            Workload::FaultRecovery => "fault_recovery",
        }
    }

    /// The workload's cells, every one configured with `seed` through
    /// [`MachineConfig::with_seed`].
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = Vec::new();
        match self {
            Workload::DdtUnpack => {
                for (b, &block) in DDT_BLOCKS.iter().enumerate() {
                    let dt = datatypes::fig7a_dt(DDT_TOTAL, block);
                    let variants = [
                        (NicKind::Integrated, DdtMode::Rdma),
                        (NicKind::Integrated, DdtMode::Spin),
                        (NicKind::Discrete, DdtMode::Rdma),
                        (NicKind::Discrete, DdtMode::Spin),
                    ];
                    for (v, (nic, mode)) in variants.into_iter().enumerate() {
                        // Sized as `datatypes::run_full` sizes it, so the
                        // set-up World matches the one the run builds.
                        let mut cfg = MachineConfig::paper(nic).with_seed(seed);
                        let bounce_off = dt.extent().next_multiple_of(4096);
                        cfg.host.mem_size =
                            (bounce_off + dt.packed_len() + 4096).next_power_of_two();
                        cfg.hpu.contexts_per_hpu = 4096;
                        cells.push(Cell::new(
                            format!("ddt/{}-{}-{block}B", mode_label(mode), nic.label()),
                            Spec::Ddt {
                                cfg,
                                mode,
                                dt,
                                pinned_ps: DDT_PINNED_PS[b][v],
                            },
                        ));
                    }
                }
            }
            Workload::AppReplay => {
                for (i, &(app, ranks)) in APPS.iter().enumerate() {
                    // Sized as `run_app` sizes it: 16 MiB, one host core.
                    let mut cfg = MachineConfig::paper(NicKind::Integrated).with_seed(seed);
                    cfg.host.mem_size = 16 << 20;
                    cfg.host.cores = 1;
                    cells.push(Cell::new(
                        format!("app/{}-{ranks}", app.name()),
                        Spec::App {
                            cfg,
                            app,
                            ranks,
                            pinned: APP_PINNED[i],
                        },
                    ));
                }
            }
            Workload::BcastScale => {
                for &ranks in &BCAST_RANKS {
                    for &bytes in &BCAST_BYTES {
                        for mode in BcastMode::ALL {
                            cells.push(Cell::new(
                                format!("bcast/{}-{ranks}-{bytes}B", mode.label()),
                                Spec::Bcast {
                                    cfg: bcast_config(seed, bytes),
                                    mode,
                                    bytes,
                                    ranks,
                                    payload_checked: false,
                                },
                            ));
                        }
                    }
                }
            }
            Workload::FaultRecovery => {
                for (name, text) in FAULT_SCENARIOS {
                    cells.push(Cell::new(
                        format!("fault/{name}"),
                        Spec::Fault { text, seed },
                    ));
                }
            }
        }
        cells
    }
}

fn mode_label(mode: DdtMode) -> &'static str {
    match mode {
        DdtMode::Rdma => "rdma",
        DdtMode::Spin => "spin",
    }
}

/// The Fig. 5a configuration (discrete NIC), memory sized as
/// `bcast::builder` sizes it.
pub fn bcast_config(seed: u64, bytes: usize) -> MachineConfig {
    let mut cfg = MachineConfig::paper(NicKind::Discrete).with_seed(seed);
    cfg.host.mem_size = (bytes.max(4096) + 4096).next_power_of_two();
    cfg
}

/// What one cell runs.
enum Spec {
    Ddt {
        cfg: MachineConfig,
        mode: DdtMode,
        dt: VectorDt,
        pinned_ps: u64,
    },
    /// Both replays of one Table 5c row: host matching, then offloaded.
    App {
        cfg: MachineConfig,
        app: AppKind,
        ranks: u32,
        pinned: [(u64, u64); 2],
    },
    Bcast {
        cfg: MachineConfig,
        mode: BcastMode,
        bytes: usize,
        ranks: u32,
        /// Whether this cell's payloads were checked byte for byte yet.
        payload_checked: bool,
    },
    Fault {
        text: &'static str,
        seed: u64,
    },
}

/// The result of one cell execution that passed its check.
pub struct CellOut {
    pub times: IterTimes,
    /// Run-to-run fingerprint: `spin_scenario::digest` of the report, or
    /// of the replay summaries on `app_replay`.
    pub digest: u64,
}

/// One cell of a workload.
pub struct Cell {
    pub name: String,
    spec: Spec,
    /// Exact layer counts of every traced execution, in order.
    pub counts: Vec<LayerCounts>,
}

impl Cell {
    fn new(name: String, spec: Spec) -> Self {
        Cell {
            name,
            spec,
            counts: Vec::new(),
        }
    }

    /// Set up, run and check the cell once. With a trace, record a span per
    /// phase and the run's exact layer counts.
    pub fn execute(
        &mut self,
        idx: usize,
        mut trace: Option<&mut Trace>,
    ) -> Result<CellOut, String> {
        let traced = trace.is_some();
        let mut span = |phase: &'static str, start: Instant| -> f64 {
            let dur = start.elapsed();
            if let Some(t) = trace.as_deref_mut() {
                t.record(idx, phase, start, dur);
            }
            dur.as_secs_f64()
        };
        let (times, digest, counts) = match &mut self.spec {
            Spec::Ddt {
                cfg,
                mode,
                dt,
                pinned_ps,
            } => {
                let setup = world_new(cfg, 2, &mut span);
                let t = Instant::now();
                let out = datatypes::run_full(cfg.clone(), *mode, *dt);
                let run = span("run", t);
                let t = Instant::now();
                datatypes::verify_unpack(&out, *dt);
                let done_ps = completion_ps(&out);
                span("check", t);
                if done_ps != *pinned_ps {
                    return Err(format!("completion {done_ps} ps != pinned {pinned_ps} ps"));
                }
                let times = IterTimes {
                    setup,
                    run,
                    events: out.report.events_executed,
                };
                let counts = traced.then(|| LayerCounts::of(&out, dt.packed_len() as u64));
                (times, spin_scenario::digest(&out.report), counts)
            }
            Spec::App {
                cfg,
                app,
                ranks,
                pinned,
            } => {
                let setup = world_new(cfg, *ranks, &mut span);
                let t = Instant::now();
                let host = run_app(cfg.clone(), *app, *ranks, APP_ITERS, false);
                let nic = run_app(cfg.clone(), *app, *ranks, APP_ITERS, true);
                let run = span("run", t);
                let got = [
                    (host.runtime.ps(), host.messages),
                    (nic.runtime.ps(), nic.messages),
                ];
                if got != *pinned {
                    return Err(format!(
                        "(runtime ps, messages) {got:?} != pinned {pinned:?}"
                    ));
                }
                // Table 5c: offload recovers part of the pt2pt overhead,
                // never more than all of it.
                let speedup = 1.0 - nic.runtime.ps() as f64 / host.runtime.ps() as f64;
                let overhead = host.comm_fraction;
                if !(speedup >= 0.0 && speedup < overhead) {
                    return Err(format!(
                        "Table 5c ordering broken: speedup {speedup} not in [0, overhead {overhead})"
                    ));
                }
                let messages = host.messages + nic.messages;
                let times = IterTimes {
                    setup,
                    run,
                    events: messages,
                };
                let counts = traced.then(|| LayerCounts {
                    app_messages: messages,
                    ..LayerCounts::default()
                });
                (times, fnv(&got), counts)
            }
            Spec::Bcast {
                cfg,
                mode,
                bytes,
                ranks,
                payload_checked,
            } => {
                let setup = world_new(cfg, *ranks, &mut span);
                let t = Instant::now();
                let out = bcast::run_full(cfg.clone(), *mode, *bytes, *ranks);
                let run = span("run", t);
                let t = Instant::now();
                if *payload_checked {
                    every_rank_received(&out, *ranks)?;
                } else {
                    // Panics unless every rank holds the full payload. It
                    // scans all marks per rank, so later executions check
                    // receipt marks and the run-to-run digest instead.
                    bcast::latency_us(&out, *bytes, *ranks);
                    *payload_checked = true;
                }
                span("check", t);
                let times = IterTimes {
                    setup,
                    run,
                    events: out.report.events_executed,
                };
                let useful = (*bytes as u64) * u64::from(*ranks - 1);
                let counts = traced.then(|| LayerCounts::of(&out, useful));
                (times, spin_scenario::digest(&out.report), counts)
            }
            Spec::Fault { text, seed } => {
                let t = Instant::now();
                let compiler = fault_compiler(text, *seed)?;
                let builder = compiler.compile().map_err(|e| e.to_string())?;
                let mut setup = span("compile", t);
                let cfg = compiler.machine_config().map_err(|e| e.to_string())?;
                setup += world_new(&cfg, compiler.nodes(), &mut span);
                let t = Instant::now();
                let out = builder.run();
                let run = span("run", t);
                let t = Instant::now();
                let checked = compiler.check(&out.report);
                span("check", t);
                checked.map_err(|e| e.to_string())?;
                let times = IterTimes {
                    setup,
                    run,
                    events: out.report.events_executed,
                };
                let counts =
                    traced.then(|| LayerCounts::of(&out, useful_bytes(compiler.scenario())));
                (times, spin_scenario::digest(&out.report), counts)
            }
        };
        self.counts.extend(counts);
        Ok(CellOut { times, digest })
    }
}

/// Time `World::new` for a cell's configuration; the world is dropped
/// outside the timer.
fn world_new(
    cfg: &MachineConfig,
    nodes: u32,
    span: &mut impl FnMut(&'static str, Instant) -> f64,
) -> f64 {
    let t = Instant::now();
    let world = World::new(cfg.clone(), nodes);
    let secs = span("world_new", t);
    drop(std::hint::black_box(world));
    secs
}

/// Parse a fault scenario at `seed`. Its pinned digest was recorded at the
/// seed the file declares and applies only there; at any other seed the
/// cell is checked for run-to-run digest equality. `max_abandoned` applies
/// at every seed.
pub fn fault_compiler(text: &str, seed: u64) -> Result<ScenarioCompiler, String> {
    let mut scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    if scenario.machine.seed != Some(seed) {
        scenario.machine.seed = Some(seed);
        scenario.expect.digest = None;
    }
    Ok(ScenarioCompiler::new(scenario))
}

/// Payload bytes a saturation scenario delivers when nothing is lost.
fn useful_bytes(s: &Scenario) -> u64 {
    match s.workload {
        spin_scenario::Workload::Saturate {
            messages, bytes, ..
        } => u64::from(s.topology.nodes() - 1) * u64::from(messages) * bytes as u64,
        _ => 0,
    }
}

/// Every non-root rank recorded a `received` mark.
fn every_rank_received(out: &SimOutput, ranks: u32) -> Result<(), String> {
    let mut got = vec![false; ranks as usize];
    for (rank, label, _) in &out.report.marks {
        if label == "received" {
            got[*rank as usize] = true;
        }
    }
    match (1..ranks).find(|&r| !got[r as usize]) {
        Some(r) => Err(format!("rank {r} never received")),
        None => Ok(()),
    }
}

fn completion_ps(out: &SimOutput) -> u64 {
    let post = out
        .report
        .mark(0, "post")
        .expect("the sender marks its post");
    let done = out
        .report
        .mark(1, "unpacked")
        .expect("the receiver marks the unpack");
    (done - post).ps()
}

/// FNV-1a over (u64, u64) pairs.
fn fnv(pairs: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in pairs {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
