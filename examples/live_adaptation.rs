//! The §8.6 live environment: random bandwidth/workload variation plus
//! a full resource failure, comparing No Adapt, Degrade, and WASP —
//! and, as a bonus, the §4.3 join-order re-planning scenario (Fig. 5).
//!
//! ```text
//! cargo run --release --example live_adaptation
//! ```

use wasp_core::prelude::*;
use wasp_netsim::prelude::*;
use wasp_streamsim::prelude::*;
use wasp_workloads::prelude::*;

fn main() {
    // --- Part 1: the live Top-K run -----------------------------------
    let cfg = ScenarioConfig::default();
    println!(
        "live environment (bandwidth walk 0.51–2.36×, workload 0.8–2.4×, failure at t=540):\n"
    );
    for ctrl in [
        ControllerKind::NoAdapt,
        ControllerKind::Degrade,
        ControllerKind::Wasp,
    ] {
        let res = run(&ScenarioSpec::section_8_6(ctrl), &cfg);
        let m = &res.metrics;
        println!(
            "{:<9} kept {:>5.1}% of events | mean delay {:>7.1}s | p99 {:>7.1}s",
            res.label,
            100.0 * (1.0 - m.dropped_fraction()),
            m.mean_delay().unwrap_or(0.0),
            m.delay_quantile(0.99).unwrap_or(0.0),
        );
        if ctrl == ControllerKind::Wasp {
            println!("  WASP's adaptations:");
            for (t, a) in m.actions() {
                if !a.starts_with("transition") {
                    println!("    t={t:>6.0}s {a}");
                }
            }
        }
    }

    // --- Part 2: join-order re-planning (Fig. 5) -----------------------
    println!("\njoin-order re-planning (the Fig. 5 scenario):");
    let mut b = TopologyBuilder::new();
    let sites: Vec<SiteId> = (0..4)
        .map(|i| b.add_site(format!("s{i}"), SiteKind::DataCenter, 8))
        .collect();
    let sink = b.add_site("sink", SiteKind::DataCenter, 8);
    b.set_all_links(Mbps(60.0), Millis(20.0));
    let mut net = Network::new(b.build().expect("valid topology"));
    // Stream C's path to the sink collapses at t = 200.
    net.set_pair_factor(sites[2], sink, FactorSeries::steps(1.0, &[(200.0, 0.02)]));

    let query = JoinQuery::fig5([sites[0], sites[1], sites[2], sites[3]], sink, 0.5);
    let (plan, physical) = query.plan_from_tree(&query.default_tree());
    println!(
        "  initial plan: {}",
        query.default_tree().render(&query_leaves(&query))
    );
    let mut engine = Engine::new(
        net,
        DynamicsScript::none(),
        plan,
        physical,
        EngineConfig::default(),
    )
    .expect("valid deployment");
    // Re-planning-only configuration, to showcase the §4.3 logical
    // plan switch (full WASP would fix this case by re-assignment).
    let mut wasp = WaspController::with_replanner(
        PolicyConfig {
            allow_reassign: false,
            allow_scale: false,
            scale_down: false,
            ..PolicyConfig::default()
        },
        Box::new(JoinOrderReplanner::new(query.clone())),
    );
    run_controlled(&mut engine, &mut wasp, 600.0, 40.0);
    let final_plan = engine.plan().clone();
    let final_physical = engine.physical().clone();
    if let Some(tree) = query.tree_from_plan(&final_plan, &final_physical) {
        println!("  final plan:   {}", tree.render(&query_leaves(&query)));
    }
    let m = engine.metrics();
    for (t, a) in m.actions() {
        if !a.starts_with("transition") {
            println!("  adaptation at t={t:>4.0}: {a}");
        }
    }
    println!(
        "  delivered {:.0} events, mean delay {:.1}s",
        m.total_delivered(),
        m.mean_delay().unwrap_or(0.0)
    );
}

fn query_leaves(q: &JoinQuery) -> Vec<wasp_optimizer::replan::StreamLeaf> {
    q.streams
        .iter()
        .map(|s| wasp_optimizer::replan::StreamLeaf::new(&s.name, s.site, s.rate))
        .collect()
}
