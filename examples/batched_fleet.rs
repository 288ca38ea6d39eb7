//! The batched fleet engine end to end: train every hub of a miniature
//! world under two pricing engines through `Session::fleet` (lockstep
//! `FleetEnv` batches).
//!
//! ```bash
//! cargo run --release --example batched_fleet
//! ```

use ect_core::prelude::*;
use ect_price::engine::{AlwaysDiscount, NeverDiscount};
use std::time::Instant;

fn main() -> ect_types::Result<()> {
    let session = SessionBuilder::new(SystemConfig::miniature())
        .threads(2)
        .build()?;
    let system = session.system()?;
    let hubs: Vec<HubId> = (0..system.world().num_hubs()).map(HubId::new).collect();
    println!(
        "world: {} hubs × {} slots, {} training episodes per cell",
        hubs.len(),
        system.world().horizon(),
        system.config().trainer.episodes
    );

    // The full hub × method grid on the batched engine.
    let engines: Vec<(String, Box<dyn PricingEngine>)> = vec![
        ("NoDiscount".into(), Box::new(NeverDiscount)),
        ("AlwaysDiscount".into(), Box::new(AlwaysDiscount)),
    ];
    let t0 = Instant::now();
    let cells = session.fleet(&engines)?;
    println!(
        "\nSession::fleet (batched engine, 2 workers) finished in {:.2?}:",
        t0.elapsed()
    );
    println!("hub | method         | avg daily reward ($)");
    println!("----|----------------|---------------------");
    for cell in &cells {
        println!(
            "{:3} | {:<14} | {:.2}",
            cell.hub, cell.method, cell.avg_daily_reward
        );
    }

    Ok(())
}
