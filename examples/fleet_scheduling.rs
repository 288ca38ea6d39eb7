//! Fleet scheduling: train ECT-DRL per hub and compare against rule-based
//! schedulers on urban and rural sites.
//!
//! ```bash
//! cargo run --release --example fleet_scheduling
//! ```

use ect_core::prelude::*;
use ect_price::engine::NeverDiscount;

fn main() -> ect_types::Result<()> {
    let mut config = SystemConfig::miniature();
    config.trainer.episodes = 30; // a little more training than the test preset
    let system = EctHubSystem::new(config)?;
    let hubs: Vec<HubId> = (0..system.world().num_hubs()).map(HubId::new).collect();

    // Every hub is one lane of a lockstep fleet: the rule-based comparators
    // (no training), then the learned policy.
    let mut rows: Vec<(&str, Vec<HubExperimentResult>)> = Vec::new();
    for mut scheduler in [
        Box::new(NoBattery) as Box<dyn Scheduler>,
        Box::new(GreedyPrice::default_thresholds()),
        Box::new(TimeOfUse),
    ] {
        let cells = run_hubs_scheduler_batched(&system, &hubs, &NeverDiscount, scheduler.as_mut())?;
        rows.push((scheduler.name(), cells));
    }
    rows.push((
        "ECT-DRL",
        run_hubs_method_batched(&system, &hubs, &NeverDiscount, "ECT-DRL")?,
    ));

    println!("hub | siting | scheduler   | avg daily reward ($)");
    println!("----|--------|-------------|---------------------");
    for (i, hub) in hubs.iter().enumerate() {
        let siting = system.world().hubs[hub.index()].siting;
        for (name, cells) in &rows {
            let (hub, reward) = (hub.as_u32(), cells[i].avg_daily_reward);
            println!("{hub:3} | {siting:?} | {name:<11} | {reward:.2}");
        }
    }
    Ok(())
}
