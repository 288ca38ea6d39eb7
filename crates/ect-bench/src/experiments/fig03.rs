//! Fig. 3 — EV charging frequency by time of day.
//!
//! The paper's histogram over ~70k charging records from 12 stations ×
//! 3 years shows a deep night trough and a broad daytime peak.

use crate::output::{ascii_series, hour_labels};
use ect_data::charging::{hourly_frequency, ChargingConfig, ChargingWorld};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Histogram result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig03Result {
    /// Charging events per hour of day across the whole history.
    pub frequency: Vec<u64>,
    /// Total charging sessions (the paper reports > 70,000 rows).
    pub total_sessions: u64,
}

/// Runs the 12-station × 3-year history.
///
/// # Errors
///
/// Propagates world-configuration failures.
pub fn run() -> ect_types::Result<Fig03Result> {
    let world = ChargingWorld::new(ChargingConfig::default())?;
    let rng = EctRng::seed_from(0xF163);
    let records = world.generate_history(24 * 365 * 3, &rng);
    let freq = hourly_frequency(&records);
    Ok(Fig03Result {
        total_sessions: freq.iter().sum(),
        frequency: freq.to_vec(),
    })
}

/// Prints the histogram.
pub fn print(result: &Fig03Result) {
    println!("== Fig. 3: charging frequency by hour of day ==");
    println!(
        "{} sessions over 3 years × 12 stations\n",
        result.total_sessions
    );
    let values: Vec<f64> = result.frequency.iter().map(|&v| v as f64).collect();
    print!("{}", ascii_series(&hour_labels(), &values, 50));
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig03Experiment;

impl ect_core::Experiment for Fig03Experiment {
    fn id(&self) -> &'static str {
        "fig03_charging_freq"
    }
    fn description(&self) -> &'static str {
        "charging-session frequency histogram (Fig. 3)"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["fig03_charging_freq"]
    }
    fn run(&self, _session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        let result = run()?;
        print(&result);
        crate::output::save_json(self.id(), &result);
        Ok(ect_core::ExperimentOutput::new(
            self.id(),
            "total_sessions",
            result.total_sessions as f64,
        )
        .with_artifact(self.id()))
    }
}
