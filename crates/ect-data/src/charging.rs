//! EV charging behaviour with ground-truth strata.
//!
//! Substitutes the paper's proprietary dataset ("three years of data from
//! twelve charging stations in a campus … more than 70,000 rows of charging
//! history"). Beyond replaying history, the generator owns the *causal*
//! ground truth the paper can only approximate by pre-labeling with NCF:
//! every (station, slot) pair belongs to one of the three strata of
//! Section IV-A —
//!
//! * **Always Charge** — an EV charges whether or not a discount is offered;
//! * **Incentive Charge** — an EV charges only if a discount is offered;
//! * **No Charge** — no EV charges either way.
//!
//! The generative story: with probability `d(s, h)` an EV wanting energy is
//! present (campus-shaped: midday peak, deep night trough — this produces the
//! paper's Fig. 3 frequency profile); a present EV is price-insensitive
//! ("always"-type) with probability `a(s, h)` and price-sensitive otherwise
//! (evenings skew heavily price-sensitive — this produces Fig. 12's
//! night-heavy Incentive mass). The historic logging policy assigns discounts
//! with a confounded propensity, which is exactly the setting the causal
//! methods must untangle.

use ect_types::ids::StationId;
use ect_types::rng::EctRng;
use ect_types::time::{DayPeriod, SlotIndex, HOURS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Causal stratum of a (station, slot) pair (Section IV-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stratum {
    /// `Y(0) = Y(1) = 0`: no EV charges regardless of treatment.
    NoCharge,
    /// `Y(0) = 0, Y(1) = 1`: an EV charges only when discounted.
    IncentiveCharge,
    /// `Y(0) = Y(1) = 1`: an EV charges regardless of treatment.
    AlwaysCharge,
}

impl Stratum {
    /// All strata, indexed consistently with the ECT-Price model heads
    /// (`f00` = NoCharge, `f01` = IncentiveCharge, `f11` = AlwaysCharge).
    pub const ALL: [Stratum; 3] = [
        Stratum::NoCharge,
        Stratum::IncentiveCharge,
        Stratum::AlwaysCharge,
    ];

    /// Index into [`Stratum::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stratum::NoCharge => 0,
            Stratum::IncentiveCharge => 1,
            Stratum::AlwaysCharge => 2,
        }
    }

    /// Potential outcome `Y(T)` for this stratum.
    pub fn outcome(self, treated: bool) -> bool {
        match self {
            Stratum::NoCharge => false,
            Stratum::IncentiveCharge => treated,
            Stratum::AlwaysCharge => true,
        }
    }
}

impl std::fmt::Display for Stratum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Stratum::NoCharge => "None",
            Stratum::IncentiveCharge => "Incentive",
            Stratum::AlwaysCharge => "Always",
        };
        write!(f, "{name}")
    }
}

/// Hourly probability that an EV wanting energy is present (campus shape,
/// calibrated so the charging-frequency histogram reproduces Fig. 3 and the
/// period strata shares reproduce Fig. 12).
const DEMAND_PROFILE: [f64; HOURS_PER_DAY] = [
    0.22, 0.18, 0.15, 0.14, 0.14, 0.18, // 00–05 night trough
    0.28, 0.38, 0.44, 0.47, 0.47, 0.46, // 06–11 morning ramp
    0.46, 0.45, 0.45, 0.44, 0.44, 0.45, // 12–17 afternoon plateau
    0.62, 0.66, 0.65, 0.55, 0.40, 0.28, // 18–23 evening surge
];

/// Hourly probability that a present EV is price-insensitive ("always").
const ALWAYS_SHARE_PROFILE: [f64; HOURS_PER_DAY] = [
    0.60, 0.60, 0.60, 0.60, 0.60, 0.65, // 00–05
    0.75, 0.82, 0.85, 0.86, 0.86, 0.86, // 06–11
    0.90, 0.92, 0.93, 0.93, 0.92, 0.90, // 12–17 (work chargers: must charge)
    0.42, 0.36, 0.34, 0.35, 0.40, 0.50, // 18–23 (price-sensitive overnight)
];

/// Configuration of the charging-behaviour world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChargingConfig {
    /// Number of charging stations (the paper's campus has 12).
    pub num_stations: u32,
    /// Global multiplier on the demand profile (calibrates total sessions).
    pub demand_scale: f64,
    /// Weekend demand multiplier (campus empties at weekends).
    pub weekend_demand_factor: f64,
    /// Probability of flipping an observed outcome (sensor/label noise).
    pub label_noise: f64,
    /// Baseline propensity of the historic logging policy to discount.
    pub base_propensity: f64,
    /// Extra propensity during the evening period (ops already discounted
    /// evenings, confounding treatment with time of day).
    pub evening_propensity_boost: f64,
    /// Propensity shift on weekends (a second, weaker confounder).
    pub weekend_propensity_shift: f64,
    /// Half-width of the per-station demand multiplier band.
    pub station_demand_spread: f64,
    /// Half-width of the per-station always-share shift band.
    pub station_always_shift: f64,
    /// Seed stream used to derive station personalities.
    pub station_seed: u64,
}

impl Default for ChargingConfig {
    fn default() -> Self {
        Self {
            num_stations: 12,
            demand_scale: 0.75,
            weekend_demand_factor: 0.65,
            label_noise: 0.01,
            base_propensity: 0.18,
            evening_propensity_boost: 0.35,
            weekend_propensity_shift: 0.08,
            station_demand_spread: 0.25,
            station_always_shift: 0.08,
            station_seed: 0xEC7,
        }
    }
}

impl ChargingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for impossible
    /// probabilities or an empty station set.
    pub fn validate(&self) -> ect_types::Result<()> {
        if self.num_stations == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "at least one charging station is required".into(),
            ));
        }
        for (name, v) in [
            ("demand_scale", self.demand_scale),
            ("weekend_demand_factor", self.weekend_demand_factor),
        ] {
            if v <= 0.0 || v > 2.0 {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "{name} must lie in (0, 2], got {v}"
                )));
            }
        }
        if !(0.0..=0.4).contains(&self.label_noise) {
            return Err(ect_types::EctError::InvalidConfig(
                "label noise must lie in [0, 0.4]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.base_propensity)
            || self.base_propensity + self.evening_propensity_boost + self.weekend_propensity_shift
                > 1.0
        {
            return Err(ect_types::EctError::InvalidConfig(
                "propensity components must compose to a probability".into(),
            ));
        }
        Ok(())
    }
}

/// Per-station personality derived deterministically from the config seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct StationProfile {
    demand_multiplier: f64,
    always_shift: f64,
}

/// The ground-truth charging world.
///
/// # Example
///
/// ```
/// use ect_data::charging::{ChargingConfig, ChargingWorld};
/// use ect_types::ids::StationId;
/// use ect_types::time::SlotIndex;
///
/// let world = ChargingWorld::new(ChargingConfig::default())?;
/// let p = world.stratum_probs(StationId::new(0), SlotIndex::new(20));
/// let total: f64 = p.iter().sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok::<(), ect_types::EctError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChargingWorld {
    config: ChargingConfig,
    stations: Vec<StationProfile>,
    /// Scenario-injected per-slot demand multiplier (empty = baseline). When
    /// shorter than a queried horizon it extends periodically, so a
    /// 30-day scenario profile also shapes multi-year pricing histories.
    demand_boost: Vec<f64>,
}

impl ChargingWorld {
    /// Builds the world, deriving station personalities from the seed.
    ///
    /// # Errors
    ///
    /// Propagates [`ChargingConfig::validate`] failures.
    pub fn new(config: ChargingConfig) -> ect_types::Result<Self> {
        config.validate()?;
        let root = EctRng::seed_from(config.station_seed);
        let stations = (0..config.num_stations)
            .map(|s| {
                let mut rng = root.fork(u64::from(s));
                StationProfile {
                    demand_multiplier: 1.0
                        + rng.uniform_in(
                            -config.station_demand_spread,
                            config.station_demand_spread,
                        ),
                    always_shift: rng
                        .uniform_in(-config.station_always_shift, config.station_always_shift),
                }
            })
            .collect();
        Ok(Self {
            config,
            stations,
            demand_boost: Vec::new(),
        })
    }

    /// Installs a scenario demand-boost series (per-slot multipliers on the
    /// EV presence probability). An empty series restores the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] if any multiplier is
    /// negative or non-finite.
    pub fn set_demand_boost(&mut self, boost: Vec<f64>) -> ect_types::Result<()> {
        if let Some(&bad) = boost.iter().find(|b| !b.is_finite() || **b < 0.0) {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "demand boost multiplier {bad} must be finite and non-negative"
            )));
        }
        self.demand_boost = boost;
        Ok(())
    }

    /// The installed scenario demand-boost series (empty = baseline).
    pub fn demand_boost(&self) -> &[f64] {
        &self.demand_boost
    }

    /// Number of stations in the world.
    pub fn num_stations(&self) -> u32 {
        self.config.num_stations
    }

    /// Configuration the world was built with.
    pub fn config(&self) -> &ChargingConfig {
        &self.config
    }

    fn profile(&self, station: StationId) -> &StationProfile {
        &self.stations[station.index() % self.stations.len()]
    }

    /// Probability an EV wanting energy is present.
    fn demand(&self, station: StationId, slot: SlotIndex) -> f64 {
        let mut d = DEMAND_PROFILE[slot.hour_of_day()]
            * self.config.demand_scale
            * self.profile(station).demand_multiplier;
        if slot.is_weekend() {
            d *= self.config.weekend_demand_factor;
        }
        if !self.demand_boost.is_empty() {
            d *= self.demand_boost[slot.as_usize() % self.demand_boost.len()];
        }
        d.clamp(0.0, 1.0)
    }

    fn always_share(&self, station: StationId, slot: SlotIndex) -> f64 {
        (ALWAYS_SHARE_PROFILE[slot.hour_of_day()] + self.profile(station).always_shift)
            .clamp(0.0, 1.0)
    }

    /// Ground-truth stratum probabilities `[P(None), P(Incentive), P(Always)]`
    /// indexed consistently with [`Stratum::index`].
    pub fn stratum_probs(&self, station: StationId, slot: SlotIndex) -> [f64; 3] {
        let d = self.demand(station, slot);
        let a = self.always_share(station, slot);
        [1.0 - d, d * (1.0 - a), d * a]
    }

    /// Draws the stratum of one (station, slot) pair.
    pub fn sample_stratum(&self, station: StationId, slot: SlotIndex, rng: &mut EctRng) -> Stratum {
        let p = self.stratum_probs(station, slot);
        Stratum::ALL[rng.categorical(&p)]
    }

    /// The historic logging policy's discount propensity `P(T = 1 | X)`.
    ///
    /// Deliberately confounded with time of day and weekends: operators
    /// already discounted evenings, when price-sensitive demand is highest.
    pub fn propensity(&self, _station: StationId, slot: SlotIndex) -> f64 {
        let mut p = self.config.base_propensity;
        if slot.period() == DayPeriod::Evening {
            p += self.config.evening_propensity_boost;
        }
        if slot.is_weekend() {
            p += self.config.weekend_propensity_shift;
        }
        p.clamp(0.0, 1.0)
    }

    /// Generates the observational charging history over `slots` hours for
    /// every station: the substitute for the paper's 70k-row campus dataset.
    /// Forks `rng` without advancing it, so one stream yields one history.
    pub fn generate_history(&self, slots: usize, rng: &EctRng) -> Vec<ChargingRecord> {
        let mut records = Vec::with_capacity(slots * self.config.num_stations as usize);
        records.extend(self.history(slots, rng));
        records
    }

    /// The records of [`Self::generate_history`], in the same order
    /// (station-major, then slot), drawn lazily — for consumers that encode
    /// them without materialising the list. Forks `rng` without advancing
    /// it.
    pub fn history<'a>(
        &'a self,
        slots: usize,
        rng: &EctRng,
    ) -> impl Iterator<Item = ChargingRecord> + 'a {
        let rng = rng.clone();
        (0..self.config.num_stations).flat_map(move |s| {
            let station = StationId::new(s);
            let mut srng = rng.fork(u64::from(s).wrapping_add(0xC0FFEE));
            (0..slots).map(move |t| {
                let slot = SlotIndex::new(t);
                let stratum = self.sample_stratum(station, slot, &mut srng);
                let treated = srng.chance(self.propensity(station, slot));
                let mut charged = stratum.outcome(treated);
                if srng.chance(self.config.label_noise) {
                    charged = !charged;
                }
                ChargingRecord {
                    station,
                    slot,
                    treated,
                    charged,
                    stratum,
                }
            })
        })
    }
}

/// One row of observational charging history.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargingRecord {
    /// Which charging station.
    pub station: StationId,
    /// Which hourly slot.
    pub slot: SlotIndex,
    /// Treatment `T`: was a discount offered?
    pub treated: bool,
    /// Outcome `Y`: did an EV charge?
    pub charged: bool,
    /// Ground-truth stratum — available only to evaluation code, never to
    /// the learners (the paper has to approximate this with NCF ratings).
    pub stratum: Stratum,
}

/// Histogram of charging events by hour of day (the paper's Fig. 3).
pub fn hourly_frequency(records: &[ChargingRecord]) -> [u64; HOURS_PER_DAY] {
    let mut counts = [0u64; HOURS_PER_DAY];
    for r in records {
        if r.charged {
            counts[r.slot.hour_of_day()] += 1;
        }
    }
    counts
}

/// Share of each stratum per six-hour period (the paper's Fig. 12).
///
/// Returns `shares[period][stratum]`, rows summing to 1 (all-zero when a
/// period has no records).
pub fn period_strata_shares(records: &[ChargingRecord]) -> [[f64; 3]; 4] {
    let mut counts = [[0u64; 3]; 4];
    for r in records {
        counts[r.slot.period().index()][r.stratum.index()] += 1;
    }
    let mut shares = [[0.0; 3]; 4];
    for (period, row) in counts.iter().enumerate() {
        let total: u64 = row.iter().sum();
        if total > 0 {
            for (s, &c) in row.iter().enumerate() {
                shares[period][s] = c as f64 / total as f64;
            }
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn world() -> ChargingWorld {
        ChargingWorld::new(ChargingConfig::default()).unwrap()
    }

    #[test]
    fn stratum_probs_form_a_distribution() {
        let w = world();
        for s in 0..12 {
            for t in 0..48 {
                let p = w.stratum_probs(StationId::new(s), SlotIndex::new(t));
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
                assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn potential_outcomes_match_strata_definitions() {
        assert!(!Stratum::NoCharge.outcome(true));
        assert!(!Stratum::NoCharge.outcome(false));
        assert!(Stratum::IncentiveCharge.outcome(true));
        assert!(!Stratum::IncentiveCharge.outcome(false));
        assert!(Stratum::AlwaysCharge.outcome(true));
        assert!(Stratum::AlwaysCharge.outcome(false));
    }

    #[test]
    fn counterfactual_identification_holds_on_generated_data() {
        // Eqs. 13–16 of the paper: with negligible noise,
        // (Y=0, T=1) ⇒ NoCharge and (Y=1, T=0) ⇒ AlwaysCharge.
        let w = ChargingWorld::new(ChargingConfig {
            label_noise: 0.0,
            ..ChargingConfig::default()
        })
        .unwrap();
        let rng = EctRng::seed_from(42);
        let records = w.generate_history(24 * 120, &rng);
        for r in &records {
            if !r.charged && r.treated {
                assert_eq!(r.stratum, Stratum::NoCharge);
            }
            if r.charged && !r.treated {
                assert_eq!(r.stratum, Stratum::AlwaysCharge);
            }
            if r.charged && r.treated {
                assert_ne!(r.stratum, Stratum::NoCharge);
            }
            if !r.charged && !r.treated {
                assert_ne!(r.stratum, Stratum::AlwaysCharge);
            }
        }
    }

    #[test]
    fn frequency_histogram_has_campus_shape() {
        // Fig. 3: midday peak, deep night trough, evening shoulder.
        let w = world();
        let rng = EctRng::seed_from(7);
        let records = w.generate_history(24 * 365, &rng);
        let freq = hourly_frequency(&records);
        let night: u64 = (2..5).map(|h| freq[h]).sum();
        let midday: u64 = (10..13).map(|h| freq[h]).sum();
        let evening: u64 = (18..21).map(|h| freq[h]).sum();
        assert!(midday > 2 * night, "midday {midday} night {night}");
        assert!(evening > 2 * night, "evening {evening} night {night}");
    }

    #[test]
    fn evening_is_the_incentive_period() {
        // Fig. 12: Incentive Charge mass concentrates in 18:00–24:00.
        let w = world();
        let rng = EctRng::seed_from(8);
        let records = w.generate_history(24 * 365, &rng);
        let shares = period_strata_shares(&records);
        let evening_incentive = shares[3][Stratum::IncentiveCharge.index()];
        for (period, share) in shares.iter().take(3).enumerate() {
            assert!(
                evening_incentive > 2.0 * share[Stratum::IncentiveCharge.index()],
                "period {period}"
            );
        }
        // And afternoons are dominated by Always among charged slots.
        assert!(
            shares[2][Stratum::AlwaysCharge.index()] > shares[2][Stratum::IncentiveCharge.index()]
        );
    }

    #[test]
    fn history_size_matches_papers_order_of_magnitude() {
        // 12 stations × 3 years ≈ 70k charging events in the paper.
        let w = world();
        let rng = EctRng::seed_from(9);
        let records = w.generate_history(24 * 365 * 3, &rng);
        let sessions = records.iter().filter(|r| r.charged).count();
        assert!((50_000..150_000).contains(&sessions), "sessions {sessions}");
    }

    #[test]
    fn propensity_is_confounded_with_evening() {
        let w = world();
        let s = StationId::new(0);
        let night = w.propensity(s, SlotIndex::new(3));
        let evening = w.propensity(s, SlotIndex::new(20));
        assert!(evening > night + 0.2);
    }

    #[test]
    fn stations_have_distinct_personalities() {
        let w = world();
        let p: Vec<[f64; 3]> = (0..12)
            .map(|s| w.stratum_probs(StationId::new(s), SlotIndex::new(20)))
            .collect();
        let distinct = p
            .iter()
            .map(|v| (v[0] * 1e9) as i64)
            .collect::<std::collections::HashSet<_>>();
        assert!(
            distinct.len() > 6,
            "only {} distinct profiles",
            distinct.len()
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(ChargingConfig {
            num_stations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ChargingConfig {
            demand_scale: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ChargingConfig {
            label_noise: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ChargingConfig {
            base_propensity: 0.8,
            evening_propensity_boost: 0.3,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn demand_boost_scales_presence_probability() {
        let base = world();
        let mut boosted = world();
        boosted.set_demand_boost(vec![2.0; 24]).unwrap();
        let s = StationId::new(0);
        for t in 0..96 {
            let slot = SlotIndex::new(t);
            let pb = base.stratum_probs(s, slot);
            let px = boosted.stratum_probs(s, slot);
            let (db, dx) = (1.0 - pb[0], 1.0 - px[0]);
            // Presence doubles (up to the probability clamp), wrapping the
            // 24-slot boost series periodically.
            assert!(dx >= db - 1e-12, "slot {t}");
            assert!((dx - (db * 2.0).min(1.0)).abs() < 1e-12, "slot {t}");
        }
        // The empty boost restores the baseline, and bad boosts are rejected.
        boosted.set_demand_boost(Vec::new()).unwrap();
        assert_eq!(
            boosted.stratum_probs(s, SlotIndex::new(5)),
            base.stratum_probs(s, SlotIndex::new(5))
        );
        assert!(boosted.set_demand_boost(vec![-1.0]).is_err());
        assert!(boosted.set_demand_boost(vec![f64::NAN]).is_err());
    }

    #[test]
    fn history_is_deterministic_per_seed() {
        let w = world();
        let r1 = EctRng::seed_from(11);
        let r2 = EctRng::seed_from(11);
        assert_eq!(w.generate_history(240, &r1), w.generate_history(240, &r2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn outcome_consistency(seed in 0u64..1000, slots in 24usize..96) {
            // Without label noise, Y must equal the stratum's potential outcome.
            let w = ChargingWorld::new(ChargingConfig {
                label_noise: 0.0,
                ..ChargingConfig::default()
            }).unwrap();
            let rng = EctRng::seed_from(seed);
            for r in w.generate_history(slots, &rng) {
                prop_assert_eq!(r.charged, r.stratum.outcome(r.treated));
            }
        }
    }
}
