//! Chaos differential suite: the fault-injection subsystem under every
//! engine.
//!
//! The contract mirrors the fault design (`spin-core/src/fault.rs`): all
//! fault effects are pure functions of the immutable compiled plan and the
//! charged time, so
//!
//! * the **exact** sharded engine stays *byte-identical* to serial under
//!   arbitrary fault schedules — pinned here by a randomized differential
//!   (random traffic × random flap/crash/degrade schedules);
//! * the **relaxed** pairwise-horizon engine stays *count-stable* under
//!   latency-only degradations (every fault effect adds latency or drops,
//!   never lowers a route below its base, so the horizons stay sound);
//! * under drop-capable faults the relaxed engine still delivers the same
//!   *outcome multiset* — every (rank, label) host event fires exactly as
//!   in serial even though drop/probe counts may shift with tie-breaks;
//! * a mid-run link flap under incast completes **every** delivery through
//!   the recovery machine (the acceptance regression), and selective
//!   retransmission replays only the dead tail of a half-transmitted
//!   message instead of the whole body;
//! * link flaps under random loss recover without probing a message that
//!   was already delivered (pinned by digest at two seeds).

mod common;

use common::{
    fault_plan_from, fingerprint, plans_from, run_case_faults_mode, PlannedOp, TrafficNode, MTU,
};
use proptest::collection;
use proptest::prelude::*;
use spin_core::config::{MachineConfig, NicKind};
use spin_core::fault::{FaultKind, FaultPlan};
use spin_core::world::{NodeStats, Report, ShardMode, SimBuilder};
use spin_scenario::{Scenario, ScenarioCompiler};
use spin_sim::time::Time;

/// The count-stable slice of a report (the relaxed engine's contract):
/// everything integer-shaped, including the fault counters.
fn stable_fingerprint(r: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "events={}", r.events_executed).unwrap();
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    writeln!(out, "downed={}", r.links_downed_ns).unwrap();
    let mut marks: Vec<(u32, &str)> = r.marks.iter().map(|(n, l, _)| (*n, l.as_str())).collect();
    marks.sort_unstable();
    for (rank, label) in marks {
        writeln!(out, "mark r{rank} {label}").unwrap();
    }
    for (i, s) in r.node_stats.iter().enumerate() {
        writeln!(
            out,
            "node{i} dma={}/{}/{} hpu={}/{} fc={} drop={} deadlink={} reroutes={} crashrec={} \
             rtxbytes={} nack={}/{} rec={}/{}/{}/{} abandoned={}/{:?} recovered={}",
            s.dma_bytes,
            s.dma_reads,
            s.dma_writes,
            s.hpu_admitted,
            s.hpu_rejected,
            s.flow_control_events,
            s.packets_dropped,
            s.drops_on_dead_link,
            s.reroutes,
            s.crash_recoveries,
            s.retransmitted_bytes,
            s.nacks_sent,
            s.recovery_nacks,
            s.recovery_backoffs,
            s.recovery_probes,
            s.recovery_retransmits,
            s.recovery_held,
            s.recovery_abandoned,
            s.abandoned_peers,
            s.recovered_messages,
        )
        .unwrap();
    }
    out
}

/// Sorted multiset of every host-visible event: what must survive *any*
/// engine under drop-capable faults (drop and probe counts may shift with
/// tie-break order; deliveries may not).
fn delivery_marks(r: &Report) -> Vec<(u32, String)> {
    let mut marks: Vec<(u32, String)> = r.marks.iter().map(|(n, l, _)| (*n, l.clone())).collect();
    marks.sort_unstable();
    marks
}

proptest! {
    /// Random fault schedules over random traffic: the exact sharded
    /// engine reproduces the serial report byte for byte at 2 and 4
    /// shards (CI's `SPIN_SHARDS=4` leg pins the same property over the
    /// scenario corpus).
    #[test]
    fn chaos_schedules_are_engine_invariant(
        n in 4u32..8,
        traffic in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..10),
        faults in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let plans = plans_from(n, &traffic);
        let plan = fault_plan_from(n, &faults);
        let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
        let golden = fingerprint(&serial);
        for shards in [2usize, 4] {
            let sharded = run_case_faults_mode(n, &plans, &plan, shards, ShardMode::Exact);
            prop_assert_eq!(
                &golden,
                &fingerprint(&sharded),
                "exact engine diverged from serial at {} shards under faults {:?}",
                shards,
                plan.events
            );
        }
    }
}

/// The acceptance regression: a mid-run link flap at the incast root.
/// The first wave lands cleanly; the second wave hits the dead access
/// link, drops at the source, and is driven through NACK → backoff →
/// probing until the link returns — with **every** delivery completing
/// and nothing abandoned. Byte-identical at 4 exact shards.
#[test]
fn link_flap_mid_incast_completes_every_delivery() {
    let n = 8u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            if r == 0 {
                Vec::new()
            } else {
                vec![
                    PlannedOp {
                        delay: Time::from_us(1),
                        dst: 0,
                        len: MTU + 321,
                        kind: 0,
                    },
                    PlannedOp {
                        delay: Time::from_us(10),
                        dst: 0,
                        len: MTU + 321,
                        kind: 0,
                    },
                ]
            }
        })
        .collect();
    let plan = FaultPlan::default()
        .with(Time::from_us(5), FaultKind::LinkDown { node: 0 })
        .with(Time::from_us(40), FaultKind::LinkUp { node: 0 });
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);

    // Every delivery completed: both waves acked at every sender, both
    // waves' puts seen at the root.
    for r in 1..n {
        let acks = serial
            .marks
            .iter()
            .filter(|(rank, l, _)| *rank == r && l.starts_with("Ack"))
            .count();
        assert_eq!(acks, 2, "rank {r} is missing acks: {:?}", serial.marks);
    }
    let puts = serial
        .marks
        .iter()
        .filter(|(rank, l, _)| *rank == 0 && l.starts_with("Put"))
        .count();
    assert_eq!(puts, 2 * (n as usize - 1), "root missed deliveries");

    // ...via the recovery machine, not by luck.
    let sum = |f: fn(&NodeStats) -> u64| serial.node_stats.iter().map(f).sum::<u64>();
    assert!(
        sum(|s| s.drops_on_dead_link) > 0,
        "nothing hit the dead link"
    );
    assert!(sum(|s| s.recovery_nacks) > 0, "no NACK was synthesized");
    assert!(
        sum(|s| s.recovery_retransmits) > 0,
        "nothing was retransmitted"
    );
    assert_eq!(sum(|s| s.recovery_abandoned), 0, "a delivery was abandoned");
    assert_eq!(serial.links_downed_ns, 35_000, "downtime accounting");

    let sharded = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Exact);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&sharded),
        "exact engine diverged under the flap"
    );
}

/// Latency-only degradations in the relaxed engine: the degrade window
/// only *adds* latency, so the pairwise horizons stay conservative and
/// every count-shaped observable matches serial bit for bit.
#[test]
fn relaxed_latency_only_degrade_is_count_stable() {
    let n = 6u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            vec![
                PlannedOp {
                    delay: Time::from_us(1),
                    dst: (r + 1) % n,
                    len: MTU + 99,
                    kind: 0,
                },
                PlannedOp {
                    delay: Time::from_us(8),
                    dst: (r + 2) % n,
                    len: 700,
                    kind: 1,
                },
            ]
        })
        .collect();
    let plan = FaultPlan::default()
        .with(
            Time::from_us(2),
            FaultKind::Degrade {
                src: None,
                dst: None,
                extra_latency: Time::from_ns(400),
                loss: 0.0,
            },
        )
        .with(
            Time::from_us(30),
            FaultKind::Restore {
                src: None,
                dst: None,
            },
        );
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
    let relaxed = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        stable_fingerprint(&serial),
        stable_fingerprint(&relaxed),
        "relaxed counts diverged under a latency-only degrade"
    );
    // And the relaxed engine is reproducible against itself.
    let again = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        fingerprint(&relaxed),
        fingerprint(&again),
        "relaxed run not reproducible under faults"
    );
}

/// Drop-capable faults (flap + crash/restart) in the relaxed engine:
/// probe timing may shift with tie-breaks, but the delivered-outcome
/// multiset — every Put, Ack, and armed mark on every rank — is exactly
/// serial's, and the run reproduces bit-identically against itself.
#[test]
fn relaxed_flap_and_crash_keep_deliveries_stable() {
    let n = 6u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            if r == 0 {
                vec![PlannedOp {
                    delay: Time::from_us(1),
                    dst: 3,
                    len: 900,
                    kind: 0,
                }]
            } else {
                vec![
                    PlannedOp {
                        delay: Time::from_us(1),
                        dst: 0,
                        len: MTU + 17,
                        kind: 0,
                    },
                    PlannedOp {
                        delay: Time::from_us(12),
                        dst: 0,
                        len: 512,
                        kind: 0,
                    },
                ]
            }
        })
        .collect();
    let plan = FaultPlan::default()
        .with(Time::from_us(5), FaultKind::LinkDown { node: 0 })
        .with(Time::from_us(25), FaultKind::LinkUp { node: 0 })
        .with(Time::from_us(6), FaultKind::NodeCrash { node: 3 })
        .with(Time::from_us(30), FaultKind::NodeRestart { node: 3 });
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
    assert!(
        serial.node_stats.iter().any(|s| s.crash_recoveries > 0),
        "the crash never recovered"
    );
    let relaxed = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        delivery_marks(&serial),
        delivery_marks(&relaxed),
        "relaxed deliveries diverged under flap + crash"
    );
    let again = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        fingerprint(&relaxed),
        fingerprint(&again),
        "relaxed run not reproducible under drop-capable faults"
    );
}

// --------------------------------------- selective tail retransmission

/// One 24-packet acked put from rank 0 to rank 1 under a receiver-side
/// link flap, with selective retransmission on or off.
fn run_tail_cut(selective: bool, down_ns: u64, up_ns: u64) -> Report {
    let mut config = MachineConfig::paper(NicKind::Integrated).with_recovery();
    config.recovery.as_mut().unwrap().selective_retransmit = selective;
    config.net.switch_ports = 4;
    let config = config.with_faults(
        FaultPlan::default()
            .with(Time::from_ns(down_ns), FaultKind::LinkDown { node: 1 })
            .with(Time::from_ns(up_ns), FaultKind::LinkUp { node: 1 }),
    );
    let plan = vec![PlannedOp {
        delay: Time::from_us(10),
        dst: 1,
        len: 24 * MTU,
        kind: 0,
    }];
    SimBuilder::new(config)
        .nodes_with(2, |r| {
            Box::new(TrafficNode {
                plan: if r == 0 { plan.clone() } else { Vec::new() },
            })
        })
        .run_serial()
        .report
}

fn delivered(r: &Report) -> bool {
    r.marks
        .iter()
        .any(|(n, l, _)| *n == 0 && l.starts_with("Ack"))
        && r.marks
            .iter()
            .any(|(n, l, _)| *n == 1 && l.starts_with("Put"))
}

/// Selective retransmission replays only the dead tail: scan flap onsets
/// across the message's transmission window until one cuts the message
/// mid-flight, then pin that the selective sender resends strictly fewer
/// bytes than the whole-message baseline at the same schedule — with the
/// same delivery outcome.
#[test]
fn selective_retransmit_resends_only_the_dead_tail() {
    let full_body = (24 * MTU) as u64;
    let mut witnessed = false;
    for step in 0..28u64 {
        // The put injects shortly after its 10 µs timer; 24 MTU packets
        // occupy ~82 ns each, so onsets stepped at 150 ns sweep the whole
        // transmission window.
        let down = 10_300 + step * 150;
        let up = down + 1_000;
        let sel = run_tail_cut(true, down, up);
        let tail = sel.node_stats[0].retransmitted_bytes;
        if tail == 0 || tail >= full_body {
            continue; // flap missed the message or killed it from packet 0
        }
        // A mid-message cut: the tail resume replayed a strict subset.
        assert!(
            delivered(&sel),
            "selective run lost the message (down={down})"
        );
        assert!(
            sel.node_stats[0].drops_on_dead_link > 0,
            "tail cut without dead-link drops (down={down})"
        );
        let full = run_tail_cut(false, down, up);
        assert!(
            delivered(&full),
            "baseline run lost the message (down={down})"
        );
        let replayed = full.node_stats[0].retransmitted_bytes;
        assert!(
            replayed >= full_body,
            "baseline replayed {replayed} bytes, expected the whole {full_body}-byte body"
        );
        assert!(
            tail < replayed,
            "selective resent {tail} bytes, baseline {replayed} (down={down})"
        );
        witnessed = true;
        break;
    }
    assert!(
        witnessed,
        "no flap onset in the sweep produced a mid-message tail cut"
    );
}

// ----------------------------------------- flaps under random loss

/// 63 RDMA senders saturate rank 0 of a 64-node radix-8 fat tree while
/// rank 0's access link flaps six times for 12 µs (10–172 µs) and every
/// link drops 2% of its packets.
fn flaps_under_loss(seed: u64) -> Report {
    let faults: Vec<String> = (0..6u64)
        .flat_map(|i| {
            let down = 10_000 + i * 30_000;
            [("LinkDown", down), ("LinkUp", down + 12_000)]
        })
        .map(|(action, at)| {
            format!(r#"{{"at_ns": {at}, "action": {{"{action}": {{"node": 0}}}}}}"#)
        })
        .collect();
    let text = format!(
        r#"{{
            "name": "flaps-under-loss",
            "topology": {{"FatTree": {{"nodes": 64, "ports": 8}}}},
            "machine": {{"recovery": true, "seed": {seed}}},
            "workload": {{"Saturate": {{"messages": 64, "bytes": 8192,
                "interval_ns": 8000, "service_ns": 500, "mode": "Rdma"}}}},
            "impairments": [{{"loss": 0.02}}],
            "faults": [{}]
        }}"#,
        faults.join(", ")
    );
    let scenario = Scenario::from_json(&text).expect("scenario parses");
    ScenarioCompiler::new(scenario)
        .run(1)
        .expect("scenario compiles")
        .report
}

/// Regression: with seed 2, a message acked while still queued in a
/// backoff episode was handed out as the probe after it had been retired,
/// and the run panicked with "probe is in flight". Seed 1 never hit the
/// race and is pinned next to it as the control.
#[test]
fn flaps_under_loss_recover_without_ghost_probes() {
    for (seed, want) in [(1, 0x88d6a698aedc873cu64), (2, 0xf1f95493d1c5c2afu64)] {
        let report = flaps_under_loss(seed);
        for (i, s) in report.node_stats.iter().enumerate() {
            assert!(
                s.abandoned_peers.is_empty(),
                "seed {seed}: node {i} abandoned {:?}",
                s.abandoned_peers
            );
        }
        let nacks: u64 = report.node_stats.iter().map(|s| s.recovery_nacks).sum();
        assert!(nacks > 0, "seed {seed}: loss never drove recovery");
        let got = spin_scenario::digest(&report);
        assert_eq!(got, want, "seed {seed}: digest {got:#x}");
    }
}
