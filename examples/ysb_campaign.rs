//! The YSB Advertising Campaign query end-to-end, two ways:
//!
//! 1. **record level** — generate real ad events, run the reference
//!    query (filter views → join campaign table → 10 s windowed
//!    counts) and print the top campaigns;
//! 2. **fluid level** — deploy the same query on the paper's 16-node
//!    testbed under the §8.4 dynamics and compare No Adapt vs WASP.
//!
//! ```text
//! cargo run --release --example ysb_campaign
//! ```

use wasp_workloads::prelude::*;
use wasp_workloads::ysb::totals_by_campaign;

fn main() {
    // --- Part 1: record-level reference run ---------------------------
    let gen = YsbGenerator::new(7);
    let events = gen.generate(60_000, 60.0);
    let views = events
        .iter()
        .filter(|e| e.event_type == EventType::View)
        .count();
    println!(
        "generated {} ad events over 60 s ({} views, filter σ = {:.3})",
        events.len(),
        views,
        views as f64 / events.len() as f64
    );
    let counts = gen.campaign_counts(&events, 10.0);
    println!(
        "windowed campaign counts: {} results ({} windows × {} campaigns)",
        counts.len(),
        6,
        gen.campaigns()
    );
    let totals = totals_by_campaign(&counts);
    let mut ranked: Vec<(&u64, &f64)> = totals.iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite counts"));
    println!("top 5 campaigns by views:");
    for (campaign, views) in ranked.iter().take(5) {
        println!("  campaign {campaign:>3}: {views:>6.0} views");
    }

    // --- Part 2: the §8.4 experiment on the testbed -------------------
    println!("\nrunning the §8.4 dynamics on the 16-node testbed…");
    let cfg = ScenarioConfig::default();
    for ctrl in [ControllerKind::NoAdapt, ControllerKind::Wasp] {
        let res = run(
            &ScenarioSpec::section_8_4(QueryKind::Advertising, ctrl),
            &cfg,
        );
        let m = &res.metrics;
        println!(
            "\n{}: mean delay {:.1}s, p99 {:.1}s, delivered {:.1}%",
            res.label,
            m.mean_delay().unwrap_or(0.0),
            m.delay_quantile(0.99).unwrap_or(0.0),
            100.0 * m.total_delivered() / (m.total_generated() * res.e2e_selectivity),
        );
        for (t, d) in m.delay_series(150.0) {
            let bar = "#".repeat((d.log10().max(0.0) * 20.0) as usize + 1);
            println!("  t={t:>6.0}s {d:>8.1}s {bar}");
        }
        for (t, a) in m.actions() {
            if !a.starts_with("transition") {
                println!("  action at t={t:.0}: {a}");
            }
        }
    }
}
