//! # spin-scenario — the declarative scenario compiler
//!
//! A scenario is one JSON file declaring a **topology** (fat tree,
//! dragonfly, or torus), optional **machine knobs** (NIC integration,
//! seed, recovery, memory), optional per-link **impairments** (added
//! latency, seeded jitter, probabilistic loss, background traffic),
//! **node roles**, and a **workload** drawn from the paper's application
//! suite. [`ScenarioCompiler`] validates the declaration and compiles it
//! into a ready-to-run [`SimBuilder`] — the same world a hand-coded
//! experiment would construct, byte for byte (the equivalence suite pins
//! the fat-tree golden and the 48-node sharding incast against their
//! hand-coded twins).
//!
//! ```json
//! {
//!   "name": "fat-tree-golden",
//!   "topology": {"FatTree": {"nodes": 12, "ports": 4}},
//!   "workload": {"Gather": {"put_bytes": 6000, "ring_bytes": 256, "stride": 5}},
//!   "expect": {"digest": "0xc168fc2e110a6a9b"}
//! }
//! ```
//!
//! **Determinism:** everything a scenario adds over a hand-coded world is
//! deterministic and engine-invariant. Impairment draws come from per-link
//! RNG streams derived from `(seed, src, dst)` and advanced in
//! source-side inject order, which the sharded engine replays exactly —
//! so a scenario's [`digest`] is bit-identical at any `--jobs` or
//! `SPIN_SHARDS` setting, and the corpus pins those digests in the files
//! themselves (the `expect.digest` field).

use serde::{Deserialize, Serialize};
use spin_core::config::{ImpairmentConfig, ImpairmentRule, LinkImpairment, MachineConfig, NicKind};
use spin_core::fault::{CompiledFaults, FaultEvent, FaultKind, FaultPlan};
use spin_core::world::{Report, SimBuilder, SimOutput};
use spin_net::{Topology, TopologySpec};
use spin_sim::noise::NoiseModel;
use spin_sim::time::Time;

/// Scenario-level error: parse, validation, or expectation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// The error text.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde_json::Error> for Error {
    fn from(e: serde_json::Error) -> Self {
        Error(e.to_string())
    }
}

// ------------------------------------------------------------ the schema

/// Declarative topology: mirrors [`TopologySpec`] one-to-one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyConfig {
    /// Smallest fat tree of `ports`-radix switches over `nodes` endpoints.
    FatTree { nodes: u32, ports: u32 },
    /// `groups × routers_per_group × nodes_per_router` dragonfly.
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
    },
    /// k-ary n-cube with `dims[i]` routers along dimension `i`.
    Torus { dims: Vec<u32> },
}

impl TopologyConfig {
    /// The equivalent network spec.
    pub fn spec(&self) -> TopologySpec {
        match self {
            TopologyConfig::FatTree { nodes, ports } => TopologySpec::FatTree {
                nodes: *nodes,
                ports: *ports,
            },
            TopologyConfig::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => TopologySpec::Dragonfly {
                groups: *groups,
                routers_per_group: *routers_per_group,
                nodes_per_router: *nodes_per_router,
            },
            TopologyConfig::Torus { dims } => TopologySpec::Torus { dims: dims.clone() },
        }
    }

    /// Endpoint count the topology produces.
    pub fn nodes(&self) -> u32 {
        self.spec().nodes()
    }
}

/// NIC integration style.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NicChoice {
    /// NIC-integrated HPUs (the paper's headline configuration).
    #[default]
    Integrated,
    /// Discrete NIC over PCIe.
    Discrete,
}

/// OS-noise model on the host cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseChoice {
    /// Noiseless hosts (the default).
    #[default]
    None,
    /// 2.5 kHz / 25 µs daemon noise.
    Daemon25us,
    /// 10 µs timer-tick noise.
    Tick10us,
}

/// Machine knobs applied on top of the paper configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineKnobs {
    /// NIC integration (default `Integrated`).
    #[serde(default)]
    pub nic: NicChoice,
    /// RNG seed (noise and impairment streams); absent = the paper
    /// default seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Enable closed-loop flow-control recovery (required by lossy
    /// impairments).
    #[serde(default)]
    pub recovery: bool,
    /// Host memory bytes per node; absent = the workload's default.
    #[serde(default)]
    pub mem_size: Option<u64>,
    /// OS noise on host cores (default none).
    #[serde(default)]
    pub noise: NoiseChoice,
}

/// One per-link impairment rule. `src`/`dst` absent = wildcard; the first
/// matching rule wins and loopback traffic is always exempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Impairment {
    /// Source endpoint the rule applies to (absent = any).
    #[serde(default)]
    pub src: Option<u32>,
    /// Destination endpoint the rule applies to (absent = any).
    #[serde(default)]
    pub dst: Option<u32>,
    /// Fixed added latency per message (ns).
    #[serde(default)]
    pub latency_ns: u64,
    /// Uniform jitter bound per message (ns): each message draws an extra
    /// delay in `[0, jitter_ns]` from the link's seeded RNG stream.
    #[serde(default)]
    pub jitter_ns: u64,
    /// Probability a recovery-tracked message is lost on this link
    /// (requires `machine.recovery`).
    #[serde(default)]
    pub loss: f64,
    /// Mean of an exponential background-traffic delay per message (ns).
    #[serde(default)]
    pub background_ns: u64,
}

/// What one scheduled fault does. Mirrors
/// [`FaultKind`](spin_core::fault::FaultKind) one-to-one; times are
/// nanoseconds and endpoints/switches are validated against the topology
/// at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultActionConfig {
    /// Down node `node`'s access link until a later `LinkUp`: every
    /// recovery-tracked message to or from it drops at the source.
    LinkDown { node: u32 },
    /// Re-open node `node`'s access link.
    LinkUp { node: u32 },
    /// Fail switch `switch`: leaf-class switches down every attached
    /// node's access link; upper fat-tree switches shed load onto the
    /// surviving spine (reroute) or partition the fabric if none survive.
    SwitchDown { switch: u32 },
    /// Bring switch `switch` back.
    SwitchUp { switch: u32 },
    /// Crash node `node`: NIC state (matching entries, channels, in-flight
    /// recovery) is torn down and the node goes unreachable.
    NodeCrash { node: u32 },
    /// Restart node `node`: its program's `on_start` re-runs, re-arming
    /// matching entries against the fresh NIC.
    NodeRestart { node: u32 },
    /// Open a degrade window on matching links: `extra_latency_ns` is
    /// added to every message, `loss` is the per-message drop probability
    /// (requires `machine.recovery`). Absent selectors are wildcards.
    Degrade {
        #[serde(default)]
        src: Option<u32>,
        #[serde(default)]
        dst: Option<u32>,
        #[serde(default)]
        extra_latency_ns: u64,
        #[serde(default)]
        loss: f64,
    },
    /// Close the degrade window with exactly this selector pair.
    Restore {
        #[serde(default)]
        src: Option<u32>,
        #[serde(default)]
        dst: Option<u32>,
    },
}

/// One timed fault in a scenario's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Absolute simulated time the fault fires (ns). Events at the same
    /// instant apply in declaration order.
    pub at_ns: u64,
    /// What happens.
    pub action: FaultActionConfig,
}

impl Fault {
    /// The engine-level fault event.
    fn event(&self) -> FaultEvent {
        let kind = match self.action {
            FaultActionConfig::LinkDown { node } => FaultKind::LinkDown { node },
            FaultActionConfig::LinkUp { node } => FaultKind::LinkUp { node },
            FaultActionConfig::SwitchDown { switch } => FaultKind::SwitchDown { switch },
            FaultActionConfig::SwitchUp { switch } => FaultKind::SwitchUp { switch },
            FaultActionConfig::NodeCrash { node } => FaultKind::NodeCrash { node },
            FaultActionConfig::NodeRestart { node } => FaultKind::NodeRestart { node },
            FaultActionConfig::Degrade {
                src,
                dst,
                extra_latency_ns,
                loss,
            } => FaultKind::Degrade {
                src,
                dst,
                extra_latency: Time::from_ns(extra_latency_ns),
                loss,
            },
            FaultActionConfig::Restore { src, dst } => FaultKind::Restore { src, dst },
        };
        FaultEvent {
            at: Time::from_ns(self.at_ns),
            kind,
        }
    }
}

/// Role placement: which rank runs the distinguished program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Roles {
    /// The root/server rank for workloads with a distinguished node
    /// (gather root, incast root). Must be 0 for the fixed-layout
    /// workloads (ping-pong, broadcast, KV, RAID, saturate).
    #[serde(default)]
    pub root: u32,
}

/// Ping-pong transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PingPongModeConfig {
    Rdma,
    P4,
    SpinStore,
    SpinStream,
}

/// Broadcast transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BcastModeConfig {
    Rdma,
    P4,
    Spin,
}

/// Saturation / RAID transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportConfig {
    Rdma,
    Spin,
}

/// The workload a scenario drives, mapped onto the paper's application
/// suite. Node counts must agree with the topology (validated at compile
/// time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// One multi-packet acked gather put per leaf plus a stride exchange
    /// ring ([`spin_apps::gather`]); any node count ≥ 2.
    Gather {
        put_bytes: usize,
        ring_bytes: usize,
        stride: u32,
    },
    /// Sustained multi-round incast at the root ([`spin_apps::incast`]);
    /// any node count ≥ 2.
    Incast { rounds: u32 },
    /// Two-node ping-pong (client rank 0, server rank 1).
    PingPong {
        bytes: usize,
        rounds: u32,
        mode: PingPongModeConfig,
    },
    /// Binomial-tree broadcast over every node (root rank 0).
    Bcast { bytes: usize, mode: BcastModeConfig },
    /// Key-value inserts: client rank 0 against `nodes - 1` servers;
    /// pairs are drawn from the machine seed.
    KvInserts { slots: u64, inserts: usize },
    /// Open-loop saturation: receiver rank 0, `nodes - 1` senders
    /// injecting on a fixed arrival interval.
    Saturate {
        messages: u32,
        bytes: usize,
        interval_ns: u64,
        service_ns: u64,
        mode: TransportConfig,
    },
    /// Fig. 7c RAID-5 update: client + parity + 4 data servers (exactly
    /// 6 nodes).
    Raid {
        total_bytes: usize,
        mode: TransportConfig,
    },
}

impl Workload {
    /// Short kind label (corpus coverage audits).
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Gather { .. } => "gather",
            Workload::Incast { .. } => "incast",
            Workload::PingPong { .. } => "pingpong",
            Workload::Bcast { .. } => "bcast",
            Workload::KvInserts { .. } => "kv",
            Workload::Saturate { .. } => "saturate",
            Workload::Raid { .. } => "raid",
        }
    }
}

/// Pinned expectations a run is checked against (regression corpus).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Expect {
    /// Hex digest (`"0x..."`) of the report at the scenario's pinned
    /// seed; engine-invariant, so the same value must reproduce serially
    /// and at any shard count.
    #[serde(default)]
    pub digest: Option<String>,
    /// Minimum `PtDisabled` NACKs processed by initiators, summed over
    /// all nodes (loss scenarios prove the recovery loop actually
    /// engaged — a synthesized loss NACK and a flow-control bounce both
    /// land here).
    #[serde(default)]
    pub min_nacks: u64,
    /// Minimum retransmitted messages summed over all nodes.
    #[serde(default)]
    pub min_retransmits: u64,
    /// Minimum fault-triggered reroutes summed over all nodes (spine
    /// failure scenarios prove path diversity actually absorbed the hit).
    #[serde(default)]
    pub min_reroutes: u64,
    /// Maximum messages abandoned after probe exhaustion, summed over all
    /// nodes; absent = unchecked. `0` pins "nothing was ever given up on"
    /// — the check failure lists every (rank, peer) abandonment so a
    /// violated pin names who gave up on whom.
    #[serde(default)]
    pub max_abandoned: Option<u64>,
}

/// One declarative scenario file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (report/table labels).
    pub name: String,
    /// Free-form description.
    #[serde(default)]
    pub description: String,
    /// The fabric.
    pub topology: TopologyConfig,
    /// Machine knobs (all defaulted).
    #[serde(default)]
    pub machine: MachineKnobs,
    /// Per-link impairment rules (first match wins).
    #[serde(default)]
    pub impairments: Vec<Impairment>,
    /// Scheduled fault events (validated and compiled against the
    /// topology; drop-capable schedules require `machine.recovery`).
    #[serde(default)]
    pub faults: Vec<Fault>,
    /// Role placement.
    #[serde(default)]
    pub roles: Roles,
    /// The workload.
    pub workload: Workload,
    /// Pinned expectations.
    #[serde(default)]
    pub expect: Expect,
}

impl Scenario {
    /// Parse a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, Error> {
        Ok(serde_json::from_str(text)?)
    }

    /// Render the scenario back to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }
}

// ---------------------------------------------------------- the compiler

/// Compiles a [`Scenario`] into a runnable [`SimBuilder`].
pub struct ScenarioCompiler {
    scenario: Scenario,
}

impl ScenarioCompiler {
    /// Wrap a parsed scenario.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioCompiler { scenario }
    }

    /// The wrapped scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Endpoint count of the declared topology.
    pub fn nodes(&self) -> u32 {
        self.scenario.topology.nodes()
    }

    /// The machine configuration the scenario compiles to: the paper
    /// config with the declared topology, impairments, and knobs applied.
    pub fn machine_config(&self) -> Result<MachineConfig, Error> {
        let s = &self.scenario;
        let n = self.nodes();
        if n < 2 {
            return Err(Error::msg(format!(
                "scenario {:?}: topology declares {n} endpoint(s); a workload needs at least 2",
                s.name
            )));
        }
        let nic = match s.machine.nic {
            NicChoice::Integrated => NicKind::Integrated,
            NicChoice::Discrete => NicKind::Discrete,
        };
        let mut cfg = MachineConfig::paper(nic).with_topology(s.topology.spec());
        if let TopologyConfig::FatTree { nodes, ports } = s.topology {
            Topology::try_fat_tree(nodes, ports)
                .map_err(|e| Error::msg(format!("scenario {:?}: {e}", s.name)))?;
            cfg.net.switch_ports = ports as usize;
        }
        if let Some(seed) = s.machine.seed {
            cfg = cfg.with_seed(seed);
        }
        if s.machine.recovery {
            cfg = cfg.with_recovery();
        }
        cfg.noise = match s.machine.noise {
            NoiseChoice::None => None,
            NoiseChoice::Daemon25us => Some(NoiseModel::daemon_25us()),
            NoiseChoice::Tick10us => Some(NoiseModel::tick_10us()),
        };
        if !s.impairments.is_empty() {
            cfg = cfg.with_impairments(self.impairment_config()?);
        }
        if !s.faults.is_empty() {
            cfg = cfg.with_faults(self.fault_plan()?);
        }
        if let Some(mem) = s.machine.mem_size {
            cfg.host.mem_size = mem as usize;
        } else if matches!(
            s.workload,
            Workload::Gather { .. } | Workload::Incast { .. }
        ) {
            // The gather/incast twins size memory exactly like their
            // hand-coded counterparts; the other workloads' builders size
            // it themselves.
            cfg.host.mem_size = 1 << 20;
        }
        Ok(cfg)
    }

    /// Validate and translate the impairment rules.
    fn impairment_config(&self) -> Result<ImpairmentConfig, Error> {
        let s = &self.scenario;
        let n = self.nodes();
        let mut rules = Vec::with_capacity(s.impairments.len());
        for (i, imp) in s.impairments.iter().enumerate() {
            if !(0.0..=1.0).contains(&imp.loss) {
                return Err(Error::msg(format!(
                    "scenario {:?}: impairment rule {i} has loss {} outside [0, 1]",
                    s.name, imp.loss
                )));
            }
            if imp.loss > 0.0 && !s.machine.recovery {
                return Err(Error::msg(format!(
                    "scenario {:?}: impairment rule {i} declares loss but \
                     machine.recovery is off (lost messages would never be retransmitted)",
                    s.name
                )));
            }
            for (which, ep) in [("src", imp.src), ("dst", imp.dst)] {
                if let Some(ep) = ep {
                    if ep >= n {
                        return Err(Error::msg(format!(
                            "scenario {:?}: impairment rule {i} names {which} {ep} \
                             but the topology has {n} endpoints",
                            s.name
                        )));
                    }
                }
            }
            rules.push(ImpairmentRule {
                src: imp.src,
                dst: imp.dst,
                effect: LinkImpairment {
                    latency: Time::from_ns(imp.latency_ns),
                    jitter: Time::from_ns(imp.jitter_ns),
                    loss: imp.loss,
                    background: Time::from_ns(imp.background_ns),
                },
            });
        }
        Ok(ImpairmentConfig { rules })
    }

    /// Validate and translate the fault schedule: build the engine plan,
    /// then dry-compile it against the declared topology so a bad event
    /// (unknown node/switch, unmatched up/down pair, loss out of range)
    /// fails here with the scenario's name and the event index attached,
    /// not as a panic at world-build time.
    fn fault_plan(&self) -> Result<FaultPlan, Error> {
        let s = &self.scenario;
        let plan = FaultPlan {
            events: s.faults.iter().map(Fault::event).collect(),
        };
        if plan.drop_capable() && !s.machine.recovery {
            return Err(Error::msg(format!(
                "scenario {:?}: the fault schedule can drop traffic (link/switch/node \
                 failures or a lossy degrade) but machine.recovery is off (dropped \
                 messages would never be retransmitted)",
                s.name
            )));
        }
        CompiledFaults::compile(&plan, &s.topology.spec().build())
            .map_err(|e| Error::msg(format!("scenario {:?}: {e}", s.name)))?;
        Ok(plan)
    }

    /// Compile to a ready-to-run builder.
    pub fn compile(&self) -> Result<SimBuilder, Error> {
        let s = &self.scenario;
        let n = self.nodes();
        let cfg = self.machine_config()?;
        let root = s.roles.root;
        if root >= n {
            return Err(Error::msg(format!(
                "scenario {:?}: roles.root is {root} but the topology has {n} endpoints",
                s.name
            )));
        }
        let fixed_root = |kind: &str| -> Result<(), Error> {
            if root != 0 {
                return Err(Error::msg(format!(
                    "scenario {:?}: the {kind} workload has a fixed layout (rank 0 \
                     is the distinguished node); roles.root must be 0",
                    s.name
                )));
            }
            Ok(())
        };
        let exact_nodes = |want: u32, why: &str| -> Result<(), Error> {
            if n != want {
                return Err(Error::msg(format!(
                    "scenario {:?}: {why}, but the topology declares {n}",
                    s.name
                )));
            }
            Ok(())
        };
        match &s.workload {
            Workload::Gather {
                put_bytes,
                ring_bytes,
                stride,
            } => {
                if *put_bytes > 0x2000 {
                    return Err(Error::msg(format!(
                        "scenario {:?}: gather put_bytes {put_bytes} exceeds the \
                         per-sender gather region (8192 B)",
                        s.name
                    )));
                }
                Ok(spin_apps::gather::builder(
                    cfg,
                    n,
                    root,
                    *put_bytes,
                    *ring_bytes,
                    *stride,
                ))
            }
            Workload::Incast { rounds } => Ok(spin_apps::incast::builder(cfg, n, root, *rounds)),
            Workload::PingPong {
                bytes,
                rounds,
                mode,
            } => {
                fixed_root("ping-pong")?;
                exact_nodes(2, "ping-pong needs exactly 2 nodes")?;
                let mode = match mode {
                    PingPongModeConfig::Rdma => spin_apps::pingpong::PingPongMode::Rdma,
                    PingPongModeConfig::P4 => spin_apps::pingpong::PingPongMode::P4,
                    PingPongModeConfig::SpinStore => spin_apps::pingpong::PingPongMode::SpinStore,
                    PingPongModeConfig::SpinStream => spin_apps::pingpong::PingPongMode::SpinStream,
                };
                Ok(spin_apps::pingpong::builder(cfg, mode, *bytes, *rounds))
            }
            Workload::Bcast { bytes, mode } => {
                fixed_root("broadcast")?;
                let mode = match mode {
                    BcastModeConfig::Rdma => spin_apps::bcast::BcastMode::Rdma,
                    BcastModeConfig::P4 => spin_apps::bcast::BcastMode::P4,
                    BcastModeConfig::Spin => spin_apps::bcast::BcastMode::Spin,
                };
                Ok(spin_apps::bcast::builder(cfg, mode, *bytes, n))
            }
            Workload::KvInserts { slots, inserts } => {
                fixed_root("key-value")?;
                let pairs = spin_apps::kvstore::random_pairs(*inserts, cfg.seed);
                Ok(spin_apps::kvstore::builder(cfg, n - 1, *slots, pairs))
            }
            Workload::Saturate {
                messages,
                bytes,
                interval_ns,
                service_ns,
                mode,
            } => {
                fixed_root("saturation")?;
                let params = spin_apps::saturate::SaturateParams {
                    senders: n - 1,
                    messages: *messages,
                    bytes: *bytes,
                    interval: Time::from_ns(*interval_ns),
                    service: Time::from_ns(*service_ns),
                };
                let mode = match mode {
                    TransportConfig::Rdma => spin_apps::saturate::SaturateMode::Rdma,
                    TransportConfig::Spin => spin_apps::saturate::SaturateMode::Spin,
                };
                Ok(spin_apps::saturate::builder(cfg, mode, params))
            }
            Workload::Raid { total_bytes, mode } => {
                fixed_root("RAID")?;
                exact_nodes(6, "RAID needs exactly 6 nodes (client + parity + 4 data)")?;
                let w = spin_apps::raid::RaidWorkload::fig7c(*total_bytes);
                let mode = match mode {
                    TransportConfig::Rdma => spin_apps::raid::RaidMode::Rdma,
                    TransportConfig::Spin => spin_apps::raid::RaidMode::Spin,
                };
                Ok(spin_apps::raid::builder(cfg, mode, &w))
            }
        }
    }

    /// Compile and run: `shards == 0` honors `SPIN_SHARDS` (the default
    /// engine dispatch), `1` forces the serial reference engine, `k ≥ 2`
    /// the sharded engine.
    pub fn run(&self, shards: usize) -> Result<SimOutput, Error> {
        let b = self.compile()?;
        Ok(match shards {
            0 => b.run(),
            1 => b.run_serial(),
            k => b.run_with_shards(k),
        })
    }

    /// Check the report against the scenario's pinned expectations.
    pub fn check(&self, report: &Report) -> Result<(), Error> {
        let s = &self.scenario;
        if let Some(want) = &s.expect.digest {
            let want = parse_digest(want).ok_or_else(|| {
                Error::msg(format!(
                    "scenario {:?}: expect.digest {want:?} is not a hex u64",
                    s.name
                ))
            })?;
            let got = digest(report);
            if got != want {
                return Err(Error::msg(format!(
                    "scenario {:?}: digest {got:#x} != pinned {want:#x}\n{}",
                    s.name,
                    fingerprint(report)
                )));
            }
        }
        let nacks: u64 = report.node_stats.iter().map(|n| n.recovery_nacks).sum();
        if nacks < s.expect.min_nacks {
            return Err(Error::msg(format!(
                "scenario {:?}: {nacks} NACKs < pinned minimum {}",
                s.name, s.expect.min_nacks
            )));
        }
        let rtx: u64 = report
            .node_stats
            .iter()
            .map(|n| n.recovery_retransmits)
            .sum();
        if rtx < s.expect.min_retransmits {
            return Err(Error::msg(format!(
                "scenario {:?}: {rtx} retransmits < pinned minimum {}",
                s.name, s.expect.min_retransmits
            )));
        }
        let reroutes: u64 = report.node_stats.iter().map(|n| n.reroutes).sum();
        if reroutes < s.expect.min_reroutes {
            return Err(Error::msg(format!(
                "scenario {:?}: {reroutes} reroutes < pinned minimum {}",
                s.name, s.expect.min_reroutes
            )));
        }
        if let Some(max) = s.expect.max_abandoned {
            let abandoned: u64 = report.node_stats.iter().map(|n| n.recovery_abandoned).sum();
            if abandoned > max {
                let mut detail = String::new();
                for (rank, st) in report.node_stats.iter().enumerate() {
                    for &(peer, count) in &st.abandoned_peers {
                        use std::fmt::Write as _;
                        write!(
                            detail,
                            "\n  rank {rank} abandoned {count} message(s) to peer {peer}"
                        )
                        .unwrap();
                    }
                }
                return Err(Error::msg(format!(
                    "scenario {:?}: {abandoned} abandoned message(s) > pinned maximum {max}{detail}",
                    s.name
                )));
            }
        }
        Ok(())
    }
}

/// Parse a pinned `"0x..."` digest.
pub fn parse_digest(text: &str) -> Option<u64> {
    let hex = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))?;
    u64::from_str_radix(hex, 16).ok()
}

// ------------------------------------------------------------ the digest

/// Render every observable of a report into one stable string — the same
/// shape the determinism goldens fingerprint, so a scenario twin of a
/// pinned golden reproduces the golden's hash exactly.
pub fn fingerprint(r: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "end={} events={}", r.end_time.ps(), r.events_executed).unwrap();
    for (rank, label, t) in &r.marks {
        writeln!(out, "mark r{rank} {label} @{}", t.ps()).unwrap();
    }
    for (rank, label, v) in &r.values {
        writeln!(out, "value r{rank} {label} = {v}").unwrap();
    }
    for (i, s) in r.node_stats.iter().enumerate() {
        writeln!(
            out,
            "node{i} dma={}b/{}r/{}w host={}b hpu={}a/{}rj busy={} fc={} drop={} runs={:?} errs={}",
            s.dma_bytes,
            s.dma_reads,
            s.dma_writes,
            s.host_mem_bytes,
            s.hpu_admitted,
            s.hpu_rejected,
            s.hpu_busy_ns,
            s.flow_control_events,
            s.packets_dropped,
            s.handler_runs,
            s.handler_errors,
        )
        .unwrap();
        writeln!(
            out,
            "recov{i} nacks={}tx/{}rx backoffs={} probes={} rtx={} held={} dropped={} reen={} disabled={} rec={}m/{}ns",
            s.nacks_sent,
            s.recovery_nacks,
            s.recovery_backoffs,
            s.recovery_probes,
            s.recovery_retransmits,
            s.recovery_held,
            s.recovery_abandoned,
            s.pt_reenables,
            s.pt_disabled_ns,
            s.recovered_messages,
            s.recovery_latency_ns,
        )
        .unwrap();
        // Fault counters appear only when the fault machinery actually
        // fired, so every pre-fault-subsystem digest reproduces unchanged.
        if s.drops_on_dead_link + s.reroutes + s.crash_recoveries > 0
            || !s.abandoned_peers.is_empty()
        {
            writeln!(
                out,
                "fault{i} deadlink={} reroutes={} crashrec={} rtxbytes={} abandoned={:?}",
                s.drops_on_dead_link,
                s.reroutes,
                s.crash_recoveries,
                s.retransmitted_bytes,
                s.abandoned_peers,
            )
            .unwrap();
        }
    }
    if r.links_downed_ns > 0 {
        writeln!(out, "faults downed_ns={}", r.links_downed_ns).unwrap();
    }
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    out
}

/// FNV-1a over the fingerprint: one stable u64 per run.
pub fn digest(r: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in fingerprint(r).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_err(s: Scenario) -> Error {
        match ScenarioCompiler::new(s).compile() {
            Ok(_) => panic!("scenario compiled unexpectedly"),
            Err(e) => e,
        }
    }

    fn gather_json(extra: &str) -> String {
        format!(
            r#"{{
              "name": "t",
              "topology": {{"FatTree": {{"nodes": 4, "ports": 4}}}},
              "workload": {{"Gather": {{"put_bytes": 2048, "ring_bytes": 128, "stride": 1}}}}{extra}
            }}"#
        )
    }

    #[test]
    fn minimal_scenario_parses_compiles_and_runs() {
        let s = Scenario::from_json(&gather_json("")).unwrap();
        assert_eq!(s.machine, MachineKnobs::default());
        assert_eq!(s.roles, Roles::default());
        let c = ScenarioCompiler::new(s);
        assert_eq!(c.nodes(), 4);
        let out = c.run(1).unwrap();
        assert!(out.report.events_executed > 0);
        c.check(&out.report).unwrap();
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"nic": "Discrete", "seed": 7, "recovery": true},
               "impairments": [{"dst": 0, "jitter_ns": 100, "loss": 0.1}],
               "roles": {"root": 2},
               "expect": {"digest": "0xdeadbeef", "min_nacks": 1}"#,
        ))
        .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.machine.nic, NicChoice::Discrete);
        assert_eq!(s.impairments[0].dst, Some(0));
        assert_eq!(s.impairments[0].src, None);
        assert_eq!(s.expect.digest.as_deref(), Some("0xdeadbeef"));
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let bad = gather_json(", \"wrokload\": 1");
        let e = Scenario::from_json(&bad).unwrap_err();
        assert!(e.message().contains("wrokload"), "{e}");
    }

    #[test]
    fn loss_without_recovery_is_rejected() {
        let s = Scenario::from_json(&gather_json(r#", "impairments": [{"loss": 0.5}]"#)).unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("recovery"), "{e}");
    }

    #[test]
    fn node_count_mismatches_are_rejected() {
        let s = Scenario::from_json(
            r#"{
              "name": "t",
              "topology": {"Torus": {"dims": [3]}},
              "workload": {"PingPong": {"bytes": 4096, "rounds": 1, "mode": "Rdma"}}
            }"#,
        )
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("exactly 2 nodes"), "{e}");
    }

    #[test]
    fn impossible_fat_trees_are_rejected_not_panicked() {
        let fat_tree = |nodes: u32, ports: u32| {
            Scenario::from_json(&format!(
                r#"{{
                  "name": "t",
                  "topology": {{"FatTree": {{"nodes": {nodes}, "ports": {ports}}}}},
                  "workload": {{"Incast": {{"rounds": 1}}}}
                }}"#
            ))
            .unwrap()
        };
        let e = compile_err(fat_tree(32, 4));
        for part in ["32 nodes", "capacity of 16", "4-port"] {
            assert!(e.message().contains(part), "{e}");
        }
        let e = compile_err(fat_tree(2, 1));
        assert!(e.message().contains("at least 2 ports, got 1"), "{e}");
    }

    #[test]
    fn fixed_layout_workloads_reject_a_moved_root() {
        let s = Scenario::from_json(
            r#"{
              "name": "t",
              "topology": {"Torus": {"dims": [2]}},
              "roles": {"root": 1},
              "workload": {"PingPong": {"bytes": 4096, "rounds": 1, "mode": "Rdma"}}
            }"#,
        )
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("roles.root must be 0"), "{e}");
    }

    #[test]
    fn digest_check_fails_loudly_on_mismatch() {
        let s = Scenario::from_json(&gather_json(r#", "expect": {"digest": "0x1"}"#)).unwrap();
        let c = ScenarioCompiler::new(s);
        let out = c.run(1).unwrap();
        let e = c.check(&out.report).unwrap_err();
        assert!(e.message().contains("pinned 0x1"), "{e}");
    }

    #[test]
    fn impairment_endpoints_are_range_checked() {
        let s = Scenario::from_json(&gather_json(
            r#", "impairments": [{"src": 9, "latency_ns": 10}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("src 9"), "{e}");
    }

    #[test]
    fn faults_roundtrip_compile_and_run() {
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"recovery": true},
               "faults": [
                 {"at_ns": 2000, "action": {"LinkDown": {"node": 1}}},
                 {"at_ns": 9000, "action": {"LinkUp": {"node": 1}}},
                 {"at_ns": 100, "action": {"Degrade": {"dst": 0, "extra_latency_ns": 250}}},
                 {"at_ns": 4000, "action": {"Restore": {"dst": 0}}}
               ]"#,
        ))
        .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.faults.len(), 4);
        assert_eq!(
            s.faults[2].action,
            FaultActionConfig::Degrade {
                src: None,
                dst: Some(0),
                extra_latency_ns: 250,
                loss: 0.0
            }
        );
        let c = ScenarioCompiler::new(s);
        let plan = c.machine_config().unwrap().faults.expect("plan installed");
        assert_eq!(plan.events.len(), 4);
        let out = c.run(1).unwrap();
        assert!(out.report.events_executed > 0);
    }

    #[test]
    fn drop_capable_faults_without_recovery_are_rejected() {
        let s = Scenario::from_json(&gather_json(
            r#", "faults": [{"at_ns": 0, "action": {"NodeCrash": {"node": 1}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("machine.recovery is off"), "{e}");
    }

    #[test]
    fn fault_validation_names_the_scenario_and_event() {
        // Node out of range for the 4-endpoint tree.
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"recovery": true},
               "faults": [{"at_ns": 0, "action": {"LinkDown": {"node": 9}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("\"t\""), "{e}");
        assert!(e.message().contains("node 9"), "{e}");
        // Unmatched LinkUp.
        let s = Scenario::from_json(&gather_json(
            r#", "faults": [{"at_ns": 0, "action": {"LinkUp": {"node": 1}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("no open LinkDown"), "{e}");
    }

    #[test]
    fn max_abandoned_zero_passes_a_clean_run() {
        let s = Scenario::from_json(&gather_json(r#", "expect": {"max_abandoned": 0}"#)).unwrap();
        let c = ScenarioCompiler::new(s);
        let out = c.run(1).unwrap();
        c.check(&out.report).unwrap();
    }

    #[test]
    fn every_workload_kind_compiles_on_a_fitting_topology() {
        let cases = [
            (
                r#"{"name":"a","topology":{"Dragonfly":{"groups":2,"routers_per_group":2,"nodes_per_router":2}},
                   "workload":{"Incast":{"rounds":1}}}"#,
                "incast",
            ),
            (
                r#"{"name":"b","topology":{"Torus":{"dims":[2]}},
                   "workload":{"PingPong":{"bytes":8192,"rounds":2,"mode":"SpinStream"}}}"#,
                "pingpong",
            ),
            (
                r#"{"name":"c","topology":{"Torus":{"dims":[2,2]}},
                   "workload":{"Bcast":{"bytes":8192,"mode":"Spin"}}}"#,
                "bcast",
            ),
            (
                r#"{"name":"d","topology":{"FatTree":{"nodes":3,"ports":4}},
                   "workload":{"KvInserts":{"slots":64,"inserts":10}}}"#,
                "kv",
            ),
            (
                r#"{"name":"e","topology":{"FatTree":{"nodes":3,"ports":4}},
                   "machine":{"recovery":true},
                   "workload":{"Saturate":{"messages":4,"bytes":8192,"interval_ns":2000,"service_ns":2000,"mode":"Spin"}}}"#,
                "saturate",
            ),
            (
                r#"{"name":"f","topology":{"FatTree":{"nodes":6,"ports":4}},
                   "workload":{"Raid":{"total_bytes":16384,"mode":"Spin"}}}"#,
                "raid",
            ),
        ];
        for (json, kind) in cases {
            let s = Scenario::from_json(json).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(s.workload.kind(), kind);
            let out = ScenarioCompiler::new(s)
                .run(1)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(out.report.events_executed > 0, "{kind} ran no events");
        }
    }
}
