//! Battery-point (BP) dynamics: Eqs. 3–6 and 8 of the paper.
//!
//! A BP is the aggregated backup-battery group of one or several nearby base
//! stations, repurposed as a schedulable energy store. Its invariants:
//!
//! * SoC always stays inside `[soc_min, soc_max]` (Eq. 5) — enforced by
//!   *partial* charge/discharge when a full-rate action would overshoot;
//! * `soc_min` must cover the worst-case base-station draw over the grid
//!   recovery time `T_r` (Eq. 6) — validated at construction;
//! * charging and discharging pass through converter efficiencies, so the
//!   round trip loses `1 − η_ch·η_dch` (the paper's Eq. 4 is lossless; we
//!   model the physical losses and document the deviation in DESIGN.md).

use ect_types::units::{KiloWatt, KiloWattHour, Money, Ratio};
use serde::{Deserialize, Serialize};

/// Scheduling action for the battery point, the DRL action space
/// (Section IV-B: "three states for the BP … (0, 1, 2)").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BpAction {
    /// Draw power from the grid into the battery.
    Charge,
    /// Supply stored power to the hub loads.
    Discharge,
    /// Do nothing.
    #[default]
    Idle,
}

impl BpAction {
    /// All actions, indexed by their DRL action id.
    pub const ALL: [BpAction; 3] = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];

    /// DRL action id (0 = charge, 1 = discharge, 2 = idle).
    pub fn index(self) -> usize {
        match self {
            BpAction::Charge => 0,
            BpAction::Discharge => 1,
            BpAction::Idle => 2,
        }
    }

    /// Action from its DRL id.
    ///
    /// # Panics
    ///
    /// Panics for ids ≥ 3.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// The paper's `S_BP(t)` sign convention: +1 charge, −1 discharge, 0 idle.
    pub fn sign(self) -> i8 {
        match self {
            BpAction::Charge => 1,
            BpAction::Discharge => -1,
            BpAction::Idle => 0,
        }
    }
}

impl std::fmt::Display for BpAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BpAction::Charge => "charge",
            BpAction::Discharge => "discharge",
            BpAction::Idle => "idle",
        };
        write!(f, "{s}")
    }
}

/// Configuration of a battery point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryPointConfig {
    /// Usable capacity, kWh (the paper cites 200–600 kWh packs).
    pub capacity_kwh: f64,
    /// Grid-side charging rate `R_ch`, kW.
    pub charge_rate_kw: f64,
    /// Battery-side discharging rate `R_dch`, kW.
    pub discharge_rate_kw: f64,
    /// Charging efficiency `η_ch`.
    pub charge_efficiency: Ratio,
    /// Discharging efficiency `η_dch`.
    pub discharge_efficiency: Ratio,
    /// Lower SoC bound as a fraction of capacity (Eq. 5 / Eq. 6).
    pub soc_min_fraction: Ratio,
    /// Upper SoC bound as a fraction of capacity (Eq. 5).
    pub soc_max_fraction: Ratio,
    /// Operation cost `c_BP` per active slot, $ (Eq. 8; the paper sets 0.01).
    pub op_cost_per_slot: f64,
}

impl Default for BatteryPointConfig {
    fn default() -> Self {
        Self {
            capacity_kwh: 300.0,
            charge_rate_kw: 50.0,
            discharge_rate_kw: 50.0,
            charge_efficiency: Ratio::saturating(0.95),
            discharge_efficiency: Ratio::saturating(0.95),
            soc_min_fraction: Ratio::saturating(0.15),
            soc_max_fraction: Ratio::saturating(0.90),
            op_cost_per_slot: 0.01,
        }
    }
}

impl BatteryPointConfig {
    /// Validates the configuration, including the blackout-reserve bound
    /// (Eq. 6): `soc_min` must cover `bs_max_power × recovery_hours`.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] if bounds are inverted,
    /// rates/capacity are non-positive, or the reserve is insufficient.
    pub fn validate(&self, bs_max_power: KiloWatt, recovery_hours: usize) -> ect_types::Result<()> {
        if self.capacity_kwh <= 0.0 || !self.capacity_kwh.is_finite() {
            return Err(ect_types::EctError::InvalidConfig(
                "battery capacity must be positive".into(),
            ));
        }
        if self.charge_rate_kw <= 0.0 || self.discharge_rate_kw <= 0.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "battery rates must be positive".into(),
            ));
        }
        if self.charge_efficiency.as_f64() <= 0.0 || self.discharge_efficiency.as_f64() <= 0.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "battery efficiencies must be positive".into(),
            ));
        }
        if self.soc_min_fraction >= self.soc_max_fraction {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "soc bounds inverted: min {} >= max {}",
                self.soc_min_fraction, self.soc_max_fraction
            )));
        }
        if self.op_cost_per_slot < 0.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "battery operation cost must be non-negative".into(),
            ));
        }
        let reserve_needed = bs_max_power.as_f64() * recovery_hours as f64;
        let reserve_held = self.soc_min_fraction * self.capacity_kwh;
        if reserve_held < reserve_needed {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "blackout reserve violated (Eq. 6): soc_min holds {reserve_held:.1} kWh \
                 but the base station needs {reserve_needed:.1} kWh over {recovery_hours} h"
            )));
        }
        Ok(())
    }

    /// Lower SoC bound in kWh.
    pub fn soc_min_kwh(&self) -> KiloWattHour {
        KiloWattHour::new(self.soc_min_fraction * self.capacity_kwh)
    }

    /// Upper SoC bound in kWh.
    pub fn soc_max_kwh(&self) -> KiloWattHour {
        KiloWattHour::new(self.soc_max_fraction * self.capacity_kwh)
    }

    /// The state of charge a battery holds at `fraction` of capacity,
    /// clamped into `[soc_min, soc_max]` — the episode-start SoC.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is NaN.
    pub fn clamped_soc(&self, fraction: f64) -> KiloWattHour {
        KiloWattHour::new(Ratio::saturating(fraction) * self.capacity_kwh)
            .clamp(self.soc_min_kwh(), self.soc_max_kwh())
    }
}

/// What one battery slot actually did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BpSlotResult {
    /// Signed grid-side power `P_BP(t)` (positive = consuming).
    pub grid_side_power: KiloWatt,
    /// SoC after the slot.
    pub soc: KiloWattHour,
    /// Operation cost `C_BP(t)` (Eq. 8) — charged only if the battery moved.
    pub op_cost: Money,
    /// The action that effectively happened (a clamped action degrades to
    /// [`BpAction::Idle`] when the SoC bound blocks it entirely).
    pub effective_action: BpAction,
}

/// A battery point with live state of charge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryPoint {
    config: BatteryPointConfig,
    soc: KiloWattHour,
}

impl BatteryPoint {
    /// Creates a battery at the given initial SoC fraction (clamped into the
    /// configured bounds).
    ///
    /// # Panics
    ///
    /// Panics if `initial_soc_fraction` is NaN.
    pub fn new(config: BatteryPointConfig, initial_soc_fraction: f64) -> Self {
        let soc = config.clamped_soc(initial_soc_fraction);
        Self { config, soc }
    }

    /// Configuration.
    pub fn config(&self) -> &BatteryPointConfig {
        &self.config
    }

    /// Current state of charge.
    pub fn soc(&self) -> KiloWattHour {
        self.soc
    }

    /// SoC as a fraction of capacity.
    pub fn soc_fraction(&self) -> f64 {
        self.soc.as_f64() / self.config.capacity_kwh
    }

    /// Overwrites the SoC with a value the slot kernel already bounded.
    /// No clamping: the caller guarantees the value came from the same
    /// Eq. 3–5 arithmetic [`Self::apply`] would have produced.
    pub(crate) fn set_soc_kwh(&mut self, soc_kwh: f64) {
        self.soc = KiloWattHour::new(soc_kwh);
    }

    /// Resets the SoC (start of an episode).
    pub fn reset(&mut self, soc_fraction: f64) {
        self.soc = self.config.clamped_soc(soc_fraction);
    }

    /// Applies one slot of the given action (Eqs. 3–5, 8).
    ///
    /// Bound-respecting semantics: if a full-rate action would cross a SoC
    /// bound, the battery moves partially up to the bound; if no headroom
    /// exists at all, the action degrades to idle (and incurs no cost).
    pub fn apply(&mut self, action: BpAction) -> BpSlotResult {
        const EPS: f64 = 1e-9;
        let cfg = &self.config;
        let (grid_power, new_soc, effective) = match action {
            BpAction::Charge => {
                let headroom = cfg.soc_max_kwh() - self.soc;
                let full_gain = cfg.charge_efficiency * (cfg.charge_rate_kw * 1.0);
                let gain = headroom.as_f64().min(full_gain);
                if gain <= EPS {
                    (KiloWatt::ZERO, self.soc, BpAction::Idle)
                } else {
                    // Grid draw scales with the achieved gain.
                    let draw = gain / cfg.charge_efficiency.as_f64();
                    (
                        KiloWatt::new(draw),
                        self.soc + KiloWattHour::new(gain),
                        BpAction::Charge,
                    )
                }
            }
            BpAction::Discharge => {
                let available = self.soc - cfg.soc_min_kwh();
                let full_draw = cfg.discharge_rate_kw * 1.0;
                let drawn = available.as_f64().min(full_draw);
                if drawn <= EPS {
                    (KiloWatt::ZERO, self.soc, BpAction::Idle)
                } else {
                    let delivered = cfg.discharge_efficiency * drawn;
                    (
                        KiloWatt::new(-delivered),
                        self.soc - KiloWattHour::new(drawn),
                        BpAction::Discharge,
                    )
                }
            }
            BpAction::Idle => (KiloWatt::ZERO, self.soc, BpAction::Idle),
        };
        self.soc = new_soc;
        let op_cost = if effective == BpAction::Idle {
            Money::ZERO
        } else {
            Money::new(cfg.op_cost_per_slot)
        };
        BpSlotResult {
            grid_side_power: grid_power,
            soc: new_soc,
            op_cost,
            effective_action: effective,
        }
    }

    /// How many hours the reserve below `soc_min` can power the base station
    /// at `bs_power` during a blackout (the Eq. 6 guarantee).
    pub fn blackout_endurance_hours(&self, bs_power: KiloWatt) -> f64 {
        if bs_power.as_f64() <= 0.0 {
            return f64::INFINITY;
        }
        // During a blackout the whole SoC is available, not just the part
        // above soc_min — that is what the reserve is *for*.
        self.soc.as_f64() * self.config.discharge_efficiency.as_f64() / bs_power.as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bp(initial: f64) -> BatteryPoint {
        BatteryPoint::new(BatteryPointConfig::default(), initial)
    }

    #[test]
    fn action_indices_round_trip() {
        for a in BpAction::ALL {
            assert_eq!(BpAction::from_index(a.index()), a);
        }
        assert_eq!(BpAction::Charge.sign(), 1);
        assert_eq!(BpAction::Discharge.sign(), -1);
        assert_eq!(BpAction::Idle.sign(), 0);
    }

    #[test]
    fn charge_increases_soc_and_draws_grid_power() {
        let mut b = bp(0.5);
        let before = b.soc();
        let r = b.apply(BpAction::Charge);
        assert_eq!(r.effective_action, BpAction::Charge);
        assert!(r.grid_side_power.as_f64() > 0.0);
        assert!(b.soc() > before);
        // Gain = η · draw.
        let gain = (b.soc() - before).as_f64();
        assert!((gain - 0.95 * r.grid_side_power.as_f64()).abs() < 1e-9);
        assert_eq!(r.op_cost, Money::new(0.01));
    }

    #[test]
    fn discharge_decreases_soc_and_provides_power() {
        let mut b = bp(0.5);
        let before = b.soc();
        let r = b.apply(BpAction::Discharge);
        assert_eq!(r.effective_action, BpAction::Discharge);
        assert!(r.grid_side_power.as_f64() < 0.0);
        let removed = (before - b.soc()).as_f64();
        assert!((removed - 50.0).abs() < 1e-9);
        assert!((r.grid_side_power.as_f64() + 0.95 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn idle_does_nothing_and_costs_nothing() {
        let mut b = bp(0.5);
        let before = b.soc();
        let r = b.apply(BpAction::Idle);
        assert_eq!(b.soc(), before);
        assert_eq!(r.grid_side_power, KiloWatt::ZERO);
        assert_eq!(r.op_cost, Money::ZERO);
    }

    #[test]
    fn charge_clamps_at_soc_max() {
        let mut b = bp(1.0); // clamped to soc_max at construction
        assert!((b.soc_fraction() - 0.90).abs() < 1e-12);
        let r = b.apply(BpAction::Charge);
        assert_eq!(r.effective_action, BpAction::Idle);
        assert_eq!(r.grid_side_power, KiloWatt::ZERO);
        assert_eq!(r.op_cost, Money::ZERO);
    }

    #[test]
    fn partial_charge_near_the_bound() {
        let cfg = BatteryPointConfig::default();
        // 1 kWh of headroom left.
        let start = (cfg.soc_max_fraction.as_f64() * cfg.capacity_kwh - 1.0) / cfg.capacity_kwh;
        let mut b = BatteryPoint::new(cfg.clone(), start);
        let r = b.apply(BpAction::Charge);
        assert_eq!(r.effective_action, BpAction::Charge);
        assert!((b.soc().as_f64() - cfg.soc_max_kwh().as_f64()).abs() < 1e-9);
        // Drew only what the headroom allowed: 1 kWh / η.
        assert!((r.grid_side_power.as_f64() - 1.0 / 0.95).abs() < 1e-9);
    }

    #[test]
    fn discharge_clamps_at_soc_min() {
        let mut b = bp(0.15);
        let r = b.apply(BpAction::Discharge);
        assert_eq!(r.effective_action, BpAction::Idle);
        assert_eq!(b.soc(), b.config().soc_min_kwh());
    }

    #[test]
    fn reserve_bound_validation() {
        let cfg = BatteryPointConfig::default();
        // Default: 0.15 × 300 = 45 kWh ≥ 4 kW × 8 h = 32 kWh. OK.
        cfg.validate(KiloWatt::new(4.0), 8).unwrap();
        // 12 h recovery needs 48 kWh: insufficient.
        assert!(cfg.validate(KiloWatt::new(4.0), 12).is_err());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let p = KiloWatt::new(4.0);
        let c = BatteryPointConfig {
            capacity_kwh: 0.0,
            ..BatteryPointConfig::default()
        };
        assert!(c.validate(p, 1).is_err());
        let c = BatteryPointConfig {
            charge_rate_kw: -1.0,
            ..BatteryPointConfig::default()
        };
        assert!(c.validate(p, 1).is_err());
        let c = BatteryPointConfig {
            soc_min_fraction: Ratio::saturating(0.95),
            ..BatteryPointConfig::default()
        };
        assert!(c.validate(p, 1).is_err());
        let c = BatteryPointConfig {
            op_cost_per_slot: -0.5,
            ..BatteryPointConfig::default()
        };
        assert!(c.validate(p, 1).is_err());
    }

    #[test]
    fn blackout_endurance_uses_full_soc() {
        let b = bp(0.15); // at reserve floor: 45 kWh
        let hours = b.blackout_endurance_hours(KiloWatt::new(4.0));
        // 45 kWh × 0.95 / 4 kW ≈ 10.7 h ≥ the 8 h recovery target.
        assert!(hours > 8.0, "endurance {hours}");
        assert!(b.blackout_endurance_hours(KiloWatt::ZERO).is_infinite());
    }

    #[test]
    fn round_trip_efficiency_loses_energy() {
        let mut b = bp(0.5);
        let start = b.soc().as_f64();
        let charge = b.apply(BpAction::Charge);
        let after_charge = b.soc().as_f64();
        let discharge = b.apply(BpAction::Discharge);
        let after_discharge = b.soc().as_f64();

        let bought = charge.grid_side_power.as_f64(); // 50 kWh from grid
        let soc_gained = after_charge - start; // 47.5 kWh stored
        let soc_removed = after_charge - after_discharge; // 50 kWh drained
        let recovered = -discharge.grid_side_power.as_f64(); // 47.5 delivered

        // Per kWh of SoC: charging stores η_ch per grid kWh, discharging
        // delivers η_dch per stored kWh — round trip is η_ch · η_dch.
        let round_trip = (soc_gained / bought) * (recovered / soc_removed);
        assert!(
            (round_trip - 0.95 * 0.95).abs() < 1e-9,
            "round trip {round_trip}"
        );
        assert!(recovered / bought < 1.0, "round trip must lose energy");
        // Net SoC change: +47.5 (charge) − 50 (discharge) = −2.5 kWh.
        assert!((after_discharge - start - (47.5 - 50.0)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn soc_always_within_bounds(
            initial in 0.0f64..1.0,
            actions in proptest::collection::vec(0usize..3, 1..200),
        ) {
            // The Eq. 5 invariant under arbitrary action sequences.
            let mut b = bp(initial);
            let min = b.config().soc_min_kwh().as_f64() - 1e-9;
            let max = b.config().soc_max_kwh().as_f64() + 1e-9;
            for a in actions {
                b.apply(BpAction::from_index(a));
                let soc = b.soc().as_f64();
                prop_assert!(soc >= min && soc <= max, "soc {soc} outside [{min}, {max}]");
            }
        }

        #[test]
        fn energy_conservation_per_slot(initial in 0.2f64..0.8) {
            // SoC delta must equal η·draw when charging, −draw when discharging.
            let mut b = bp(initial);
            for action in [BpAction::Charge, BpAction::Discharge] {
                let before = b.soc().as_f64();
                let r = b.apply(action);
                let delta = b.soc().as_f64() - before;
                match r.effective_action {
                    BpAction::Charge => {
                        prop_assert!((delta - 0.95 * r.grid_side_power.as_f64()).abs() < 1e-9);
                    }
                    BpAction::Discharge => {
                        prop_assert!((delta + (-r.grid_side_power.as_f64()) / 0.95).abs() < 1e-9);
                    }
                    BpAction::Idle => prop_assert!(delta.abs() < 1e-12),
                }
            }
        }
    }
}
