//! Lossy-control-plane campaigns: the WASP controller driven purely
//! by heartbeat silence and a fenced, retried command channel — no
//! oracle failure events ever reach a decision.
//!
//! Per campaign the harness asserts:
//!
//! * **bounded recovery** — after every crash outage ends, delivery
//!   returns to ≥ half the nominal rate within the same 240 s window
//!   the oracle-mode chaos campaigns use (`tests/chaos.rs`), even
//!   though the controller has to *infer* the failure and its
//!   commands can be dropped, delayed and reordered;
//! * **epoch fencing** (from the decision audit trail) — no command
//!   carrying a stale epoch is ever applied, applied epochs are
//!   monotone, and a stale-rejected command id is never applied by a
//!   later redelivery;
//! * **detector accuracy** — across control-message loss rates the
//!   detector confirms every sufficiently long outage (no false
//!   negatives), never confirms a healthy site at zero loss, and its
//!   detection-lag p95 stays under the analytic bound (confirmation
//!   needs ~30 s of silence, observed at 40 s monitor granularity,
//!   with EWMA slack under loss: ≤ 90 s).

use std::collections::BTreeSet;

use wasp_core::controlplane::ControlPlaneStats;
use wasp_core::prelude::*;
use wasp_core::test_util::linear_plan;
use wasp_netsim::chaos::{ChaosConfig, ChaosEvent, ChaosInjector};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::network::Network;
use wasp_netsim::site::{SiteId, SiteKind};
use wasp_netsim::topology::TopologyBuilder;
use wasp_netsim::units::{Mbps, Millis};
use wasp_streamsim::engine::{Engine, EngineConfig};
use wasp_streamsim::physical::PhysicalPlan;
use wasp_telemetry::{Event as TelEvent, Recording, Telemetry};

const MONITOR_INTERVAL_S: f64 = 40.0;
const HORIZON_S: f64 = 900.0;
/// Nominal source rate × end-to-end selectivity.
const NOMINAL_DELIVERY_RATE: f64 = 1000.0 * 0.5;

/// Same world as `tests/chaos.rs`: an edge holding the source plus
/// three DCs. Faults only hit the DCs; the controller sits at the
/// edge, so its inbound heartbeats and outbound commands cross the
/// lossy WAN but the controller itself never dies.
fn chaos_world() -> (Network, SiteId, Vec<SiteId>) {
    let mut b = TopologyBuilder::new();
    let edge = b.add_site("edge", SiteKind::Edge, 4);
    let dc1 = b.add_site("dc1", SiteKind::DataCenter, 8);
    let dc2 = b.add_site("dc2", SiteKind::DataCenter, 8);
    let dc3 = b.add_site("dc3", SiteKind::DataCenter, 8);
    b.set_all_links(Mbps(50.0), Millis(20.0));
    (Network::new(b.build().unwrap()), edge, vec![dc1, dc2, dc3])
}

fn chaos_links(edge: SiteId, dcs: &[SiteId]) -> Vec<(SiteId, SiteId)> {
    let mut links = Vec::new();
    for &d in dcs {
        links.push((edge, d));
    }
    for &a in dcs {
        for &b in dcs {
            if a != b {
                links.push((a, b));
            }
        }
    }
    links
}

/// Crash-only fault mix with outages long enough (≥ 120 s) that the
/// detector must confirm each one: confirmation needs ~30 s of
/// silence seen at 40 s round granularity, i.e. ≤ ~80 s after the
/// crash.
fn crash_chaos(crashes: u32) -> ChaosConfig {
    ChaosConfig {
        crashes,
        crash_outage_s: (120.0, 180.0),
        flapping_sites: 0,
        link_blackouts: 0,
        stragglers: 0,
        ..ChaosConfig::full(HORIZON_S)
    }
}

fn lossy_cfg(loss: f64, seed: u64, controller_site: SiteId) -> LossyControlConfig {
    LossyControlConfig {
        loss,
        heartbeat_period_s: 5.0,
        phi_threshold: 3.0,
        seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x5eed),
        controller_site: Some(controller_site),
        ..LossyControlConfig::default()
    }
}

struct LossyCampaign {
    events: Vec<ChaosEvent>,
    engine: Engine,
    stats: ControlPlaneStats,
    recording: Recording,
}

/// One seeded campaign: chaos timeline on the data plane, loss rate on
/// the control plane, WASP deciding only from heartbeats and acks.
fn run_lossy_campaign(seed: u64, loss: f64, cfg: ChaosConfig) -> LossyCampaign {
    let (net, edge, dcs) = chaos_world();
    let links = chaos_links(edge, &dcs);
    let (script, events) =
        ChaosInjector::with_config(seed, cfg).compile(DynamicsScript::none(), &dcs, &links);
    let plan = linear_plan(edge, 1000.0, 400.0, 0.5);
    let physical = PhysicalPlan::initial(&plan, dcs[0]);
    let mut engine = Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap();
    let (tel, handle) = Telemetry::recording();
    engine.set_telemetry(tel.clone());
    let lcfg = lossy_cfg(loss, seed, edge);
    engine.enable_lossy_control(lcfg.clone());
    let mut wasp = WaspController::new(PolicyConfig::default())
        .with_control_plane(ControlPlaneConfig::Lossy(lcfg))
        .with_telemetry(tel);
    run_controlled(&mut engine, &mut wasp, HORIZON_S, MONITOR_INTERVAL_S);
    let stats = wasp.control_stats().expect("lossy mode").clone();
    LossyCampaign {
        events,
        engine,
        stats,
        recording: handle.recording(),
    }
}

/// The fencing audit, replayed from the decision audit trail: stale
/// epochs are never applied, applied epochs are monotone, and a
/// stale-rejected id can never be applied by a later redelivery.
fn check_epoch_audit(seed: u64, rec: &Recording) -> (usize, usize) {
    let mut last_applied_epoch = 0u64;
    let mut stale_ids: BTreeSet<u64> = BTreeSet::new();
    let mut applied = 0usize;
    for (t, _, ev) in rec.events() {
        match ev {
            TelEvent::ControlCommandDelivered {
                id,
                epoch,
                engine_epoch,
                applied: true,
                ..
            } => {
                applied += 1;
                assert!(
                    epoch >= engine_epoch,
                    "seed {seed}: t={t}: applied command #{id} with epoch {epoch} \
                     behind engine epoch {engine_epoch}"
                );
                assert!(
                    *epoch >= last_applied_epoch,
                    "seed {seed}: t={t}: applied epochs regressed ({epoch} after \
                     {last_applied_epoch})"
                );
                last_applied_epoch = *epoch;
                assert!(
                    !stale_ids.contains(id),
                    "seed {seed}: t={t}: command #{id} was stale-rejected earlier \
                     but applied now"
                );
            }
            TelEvent::StaleEpochRejected {
                id,
                cmd_epoch,
                engine_epoch,
                ..
            } => {
                assert!(
                    cmd_epoch < engine_epoch,
                    "seed {seed}: t={t}: rejection of #{id} was not actually stale"
                );
                stale_ids.insert(*id);
            }
            _ => {}
        }
    }
    (applied, stale_ids.len())
}

/// Bounded recovery, identical to the oracle-mode bound in
/// `tests/chaos.rs`: within 240 s of each crash outage ending,
/// delivery is back to ≥ 50% of nominal sustained over 30 s.
fn check_recovery(seed: u64, result: &LossyCampaign) {
    let m = result.engine.metrics();
    for e in &result.events {
        let ChaosEvent::SiteCrash { at, outage_s, site } = e else {
            continue;
        };
        let end = at + outage_s;
        if end + 270.0 > HORIZON_S {
            continue;
        }
        let recovered = (0..)
            .map(|k| end + k as f64 * 10.0)
            .take_while(|w0| w0 + 30.0 <= end + 270.0)
            .any(|w0| {
                let delivered: f64 = m
                    .ticks()
                    .iter()
                    .filter(|r| r.t > w0 && r.t <= w0 + 30.0)
                    .map(|r| r.delivered)
                    .sum();
                delivered >= 0.5 * NOMINAL_DELIVERY_RATE * 30.0
            });
        assert!(
            recovered,
            "seed {seed}: no recovery within 240 s of the crash of {site:?} ending at {end}"
        );
    }
}

/// The acceptance campaign: 20 seeds, 10% control-message loss,
/// heartbeat detection only. Recovery stays inside the oracle-mode
/// bound and the fence holds on every seed.
#[test]
fn twenty_seed_lossy_campaign_recovers_within_oracle_bound() {
    let mut total_applied = 0usize;
    for seed in 0..20 {
        let result = run_lossy_campaign(seed, 0.10, crash_chaos(1));
        check_recovery(seed, &result);
        let (applied, _) = check_epoch_audit(seed, &result.recording);
        total_applied += applied;
        assert!(
            result.stats.true_confirmations >= 1,
            "seed {seed}: the crash was never confirmed: {:?}",
            result.stats
        );
        // A crash of an idle DC needs no command; but whenever the
        // controller did decide, at least one send must have made it
        // through retries to the engine.
        assert!(
            result.stats.enqueued == 0 || applied >= 1,
            "seed {seed}: {} commands enqueued, none survived the lossy channel",
            result.stats.enqueued
        );
        assert_eq!(
            result.engine.stale_rejections() as usize,
            result
                .recording
                .events()
                .filter(|(_, _, ev)| matches!(ev, TelEvent::StaleEpochRejected { .. }))
                .count(),
            "seed {seed}: engine stale counter diverges from the audit trail"
        );
    }
    assert!(
        total_applied >= 10,
        "the campaign barely exercised the command channel ({total_applied} applies over 20 seeds)"
    );
}

/// Detector accuracy across control-message loss rates. Loss cannot
/// delay confirmation of a genuinely dead site (silence is silence),
/// but it inflates the EWMA heartbeat interval, so the lag bound has
/// slack: ≤ 90 s against the 30 s confirmation bar + 40 s round
/// granularity.
#[test]
fn detector_accuracy_across_loss_rates() {
    for &loss in &[0.0, 0.05, 0.10] {
        let mut all_lags: Vec<f64> = Vec::new();
        let mut fp = 0u64;
        let mut fn_ = 0u64;
        let mut confirmations = 0u64;
        for seed in 0..5 {
            let result = run_lossy_campaign(seed, loss, crash_chaos(2));
            fp += result.stats.false_positives;
            fn_ += result.stats.false_negatives;
            confirmations += result.stats.true_confirmations;
            all_lags.extend_from_slice(&result.stats.detection_lags_s);
        }
        assert!(
            confirmations >= 5,
            "loss {loss}: too few confirmations ({confirmations})"
        );
        // Every ≥120 s outage must be confirmed before it heals.
        assert_eq!(fn_, 0, "loss {loss}: {fn_} outages were never confirmed");
        if loss == 0.0 {
            assert_eq!(fp, 0, "loss {loss}: confirmed {fp} healthy sites");
        }
        all_lags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = all_lags[((all_lags.len() as f64 - 1.0) * 0.95).round() as usize];
        assert!(p95 <= 90.0, "loss {loss}: detection-lag p95 {p95} s");
    }
}

/// A scheduled control partition between the controller and a healthy
/// site silences its heartbeats: the detector must (wrongly, from the
/// truth ledger's point of view) confirm it — that is what a false
/// positive *is* — and clear it once the partition heals, without the
/// data plane ever degrading.
#[test]
fn control_partition_causes_false_positive_then_clears() {
    use wasp_netsim::dynamics::ControlPartition;
    use wasp_netsim::units::SimTime;
    let (net, edge, dcs) = chaos_world();
    // Partition edge (controller) ↔ dc1 (hosting the pipeline) for
    // 200 s: long enough to confirm, short enough to heal in-run.
    let script = DynamicsScript::none().with_control_partition(ControlPartition {
        a: edge,
        b: dcs[0],
        at: SimTime(100.0),
        duration_s: 200.0,
    });
    let plan = linear_plan(edge, 1000.0, 400.0, 0.5);
    let physical = PhysicalPlan::initial(&plan, dcs[0]);
    let mut engine = Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap();
    let lcfg = lossy_cfg(0.0, 7, edge);
    engine.enable_lossy_control(lcfg.clone());
    let mut wasp = WaspController::new(PolicyConfig::default())
        .with_control_plane(ControlPlaneConfig::Lossy(lcfg));
    run_controlled(&mut engine, &mut wasp, 600.0, MONITOR_INTERVAL_S);
    let stats = wasp.control_stats().unwrap();
    assert!(
        stats.false_positives >= 1,
        "partition should read as a failure: {stats:?}"
    );
    assert_eq!(stats.false_negatives, 0, "{stats:?}");
    // The data plane never degraded: conservation holds tightly.
    let m = engine.metrics();
    let ratio = m.total_delivered() / (m.total_generated() * 0.5);
    assert!(
        ratio > 0.9,
        "data plane was hurt by a control partition: {ratio}"
    );
}

/// CI sweep (feature-gated): 3 disjoint seeds × 2 loss rates.
#[cfg(feature = "control-chaos")]
#[test]
fn control_chaos_sweep() {
    for &loss in &[0.05, 0.10] {
        for seed in 200..203 {
            let result = run_lossy_campaign(seed, loss, crash_chaos(1));
            check_recovery(seed, &result);
            check_epoch_audit(seed, &result.recording);
        }
    }
}

mod stale_epoch_property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Property: whatever the loss rate, seed and crash timing, no
        /// stale-epoch command is ever applied (checked against the
        /// decision audit trail, not the engine's own counter).
        #[test]
        fn no_stale_epoch_command_is_ever_applied(
            seed in 0u64..1000,
            loss in 0.0f64..0.3,
            crash_at in 60.0f64..200.0,
            outage_s in 60.0f64..200.0,
        ) {
            use wasp_netsim::dynamics::Failure;
            use wasp_netsim::units::SimTime;
            let (net, edge, dcs) = chaos_world();
            let script = DynamicsScript::none().with_failure(Failure {
                at: SimTime(crash_at),
                restore_after: outage_s,
                site: Some(dcs[0]),
            });
            let plan = linear_plan(edge, 1000.0, 400.0, 0.5);
            let physical = PhysicalPlan::initial(&plan, dcs[0]);
            let mut engine =
                Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap();
            let (tel, handle) = Telemetry::recording();
            engine.set_telemetry(tel.clone());
            let lcfg = lossy_cfg(loss, seed, edge);
            engine.enable_lossy_control(lcfg.clone());
            let mut wasp = WaspController::new(PolicyConfig::default())
                .with_control_plane(ControlPlaneConfig::Lossy(lcfg))
                .with_telemetry(tel);
            run_controlled(&mut engine, &mut wasp, 500.0, MONITOR_INTERVAL_S);
            check_epoch_audit(seed, &handle.recording());
        }
    }
}
