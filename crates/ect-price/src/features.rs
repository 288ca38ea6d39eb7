//! Feature encoding shared by all pricing models.
//!
//! Following the paper's Fig. 9, the models consume a *station feature* and a
//! *time feature*, both embedded. Stations map to their ids; time slots map
//! to hour-of-day × {weekday, weekend} buckets (48 of them), which capture
//! the diurnal and weekday/weekend structure the charging behaviour depends
//! on while pooling the five weekdays — 3.5× more observations per bucket
//! than an hour-of-week encoding, which materially sharpens every model
//! trained on the same history.

use ect_data::charging::ChargingRecord;
use ect_types::ids::StationId;
use ect_types::time::{SlotIndex, HOURS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Number of time buckets: hour of day × {weekday, weekend}.
pub const TIME_BUCKETS: usize = 2 * HOURS_PER_DAY;

/// The discrete feature space of the pricing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpace {
    /// Number of charging stations ("users" in NCF terms).
    pub num_stations: usize,
}

impl FeatureSpace {
    /// Creates the space.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for zero stations.
    pub fn new(num_stations: usize) -> ect_types::Result<Self> {
        if num_stations == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "feature space needs at least one station".into(),
            ));
        }
        Ok(Self { num_stations })
    }

    /// Number of time buckets (hour-of-day × day-type).
    pub fn num_time_buckets(&self) -> usize {
        TIME_BUCKETS
    }

    /// Time bucket of a slot: `hour` for weekdays, `24 + hour` for weekends.
    pub fn time_bucket(&self, slot: SlotIndex) -> usize {
        let day_type = usize::from(slot.is_weekend());
        day_type * HOURS_PER_DAY + slot.hour_of_day()
    }

    /// The weekday bucket for an hour of day.
    pub fn weekday_bucket(&self, hour: usize) -> usize {
        assert!(hour < HOURS_PER_DAY, "hour {hour} out of range");
        hour
    }

    /// The weekend bucket for an hour of day.
    pub fn weekend_bucket(&self, hour: usize) -> usize {
        assert!(hour < HOURS_PER_DAY, "hour {hour} out of range");
        HOURS_PER_DAY + hour
    }

    /// Station index of a station id.
    ///
    /// # Panics
    ///
    /// Panics if the station is outside the space.
    pub fn station_index(&self, station: StationId) -> usize {
        let i = station.index();
        assert!(
            i < self.num_stations,
            "station {station} outside feature space"
        );
        i
    }
}

/// A pricing training/evaluation dataset in encoded form.
///
/// `treated` and `charged` are stored as `f64` (0/1) because the losses are
/// regression-style MSEs (Eqs. 18–22).
#[derive(Debug, Clone, Default)]
pub struct PricingDataset {
    /// Encoded station indices.
    pub stations: Vec<usize>,
    /// Encoded time buckets.
    pub times: Vec<usize>,
    /// Treatment indicator `T` per sample.
    pub treated: Vec<f64>,
    /// Outcome indicator `Y` per sample.
    pub charged: Vec<f64>,
    /// Ground-truth stratum per sample (oracle; evaluation only).
    pub strata: Vec<ect_data::charging::Stratum>,
    /// Original slot per sample (for period analyses).
    pub slots: Vec<SlotIndex>,
}

impl PricingDataset {
    /// Encodes raw charging records.
    pub fn from_records(space: &FeatureSpace, records: &[ChargingRecord]) -> Self {
        let mut out = Self::with_capacity(records.len());
        for r in records {
            out.push_record(space, r);
        }
        out
    }

    /// An empty dataset with room for `n` samples in every column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            stations: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
            treated: Vec::with_capacity(n),
            charged: Vec::with_capacity(n),
            strata: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
        }
    }

    /// Encodes one record onto the end of the dataset.
    pub fn push_record(&mut self, space: &FeatureSpace, r: &ChargingRecord) {
        self.stations.push(space.station_index(r.station));
        self.times.push(space.time_bucket(r.slot));
        self.treated.push(if r.treated { 1.0 } else { 0.0 });
        self.charged.push(if r.charged { 1.0 } else { 0.0 });
        self.strata.push(r.stratum);
        self.slots.push(r.slot);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Splits into `(train, test)` at the given slot boundary: everything
    /// strictly before `boundary` trains, the rest tests. Temporal splits
    /// avoid leakage from the autocorrelated series.
    pub fn split_at_slot(&self, boundary: SlotIndex) -> (Self, Self) {
        let mut train = Self::default();
        let mut test = Self::default();
        for i in 0..self.len() {
            let dst = if self.slots[i] < boundary {
                &mut train
            } else {
                &mut test
            };
            dst.stations.push(self.stations[i]);
            dst.times.push(self.times[i]);
            dst.treated.push(self.treated[i]);
            dst.charged.push(self.charged[i]);
            dst.strata.push(self.strata[i]);
            dst.slots.push(self.slots[i]);
        }
        (train, test)
    }

    /// Indices of all samples, shuffled with the given RNG (minibatching).
    pub fn shuffled_indices(&self, rng: &mut ect_types::rng::EctRng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        idx
    }

    /// Base rate of treatment in the dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn treatment_rate(&self) -> f64 {
        assert!(!self.is_empty(), "empty dataset");
        self.treated.iter().sum::<f64>() / self.len() as f64
    }

    /// Base rate of charging in the dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn charge_rate(&self) -> f64 {
        assert!(!self.is_empty(), "empty dataset");
        self.charged.iter().sum::<f64>() / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::charging::{ChargingConfig, ChargingWorld};
    use ect_types::rng::EctRng;

    fn records(slots: usize) -> Vec<ChargingRecord> {
        let world = ChargingWorld::new(ChargingConfig {
            num_stations: 3,
            ..ChargingConfig::default()
        })
        .unwrap();
        let rng = EctRng::seed_from(1);
        world.generate_history(slots, &rng)
    }

    #[test]
    fn time_buckets_split_weekday_and_weekend() {
        let space = FeatureSpace::new(3).unwrap();
        assert_eq!(space.num_time_buckets(), 48);
        // Monday 00:00 and Tuesday 00:00 pool into the same bucket.
        assert_eq!(space.time_bucket(SlotIndex::new(0)), 0);
        assert_eq!(space.time_bucket(SlotIndex::new(24)), 0);
        // Saturday 01:00 maps to the weekend block.
        assert_eq!(space.time_bucket(SlotIndex::new(5 * 24 + 1)), 25);
        assert_eq!(space.weekday_bucket(13), 13);
        assert_eq!(space.weekend_bucket(13), 37);
        // Same hour next week maps to the same bucket.
        assert_eq!(
            space.time_bucket(SlotIndex::new(10)),
            space.time_bucket(SlotIndex::new(10 + 168))
        );
    }

    #[test]
    fn encoding_round_trips_counts() {
        let space = FeatureSpace::new(3).unwrap();
        let recs = records(24 * 14);
        let ds = PricingDataset::from_records(&space, &recs);
        assert_eq!(ds.len(), recs.len());
        assert!(ds.stations.iter().all(|&s| s < 3));
        assert!(ds.times.iter().all(|&t| t < 48));
        assert!((0.0..=1.0).contains(&ds.treatment_rate()));
        assert!((0.0..=1.0).contains(&ds.charge_rate()));
    }

    #[test]
    fn temporal_split_is_clean() {
        let space = FeatureSpace::new(3).unwrap();
        let ds = PricingDataset::from_records(&space, &records(24 * 10));
        let boundary = SlotIndex::new(24 * 7);
        let (train, test) = ds.split_at_slot(boundary);
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(train.slots.iter().all(|&s| s < boundary));
        assert!(test.slots.iter().all(|&s| s >= boundary));
        assert!(!train.is_empty() && !test.is_empty());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let space = FeatureSpace::new(3).unwrap();
        let ds = PricingDataset::from_records(&space, &records(48));
        let mut rng = EctRng::seed_from(2);
        let idx = ds.shuffled_indices(&mut rng);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn feature_space_validation() {
        assert!(FeatureSpace::new(0).is_err());
        assert!(FeatureSpace::new(12).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside feature space")]
    fn station_bounds_are_checked() {
        let space = FeatureSpace::new(2).unwrap();
        let _ = space.station_index(StationId::new(5));
    }
}
