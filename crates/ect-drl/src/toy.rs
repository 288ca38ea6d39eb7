//! Deterministic toy hub worlds shared by the unit tests.

use ect_data::charging::Stratum;
use ect_data::traffic::TrafficSample;
use ect_data::weather::WeatherSample;
use ect_env::env::{EpisodeInputs, HubEnv};
use ect_env::hub::HubConfig;
use ect_env::tariff::DiscountSchedule;
use ect_types::units::{DollarsPerKwh, LoadRate};

/// A windless, sunless bare hub whose RTP at slot `t` is `price(t)`, under
/// constant traffic and always-charging EV strata.
pub(crate) fn toy_env(
    slots: usize,
    window: usize,
    load_rate: f64,
    volume_gb: f64,
    price: impl Fn(usize) -> f64,
) -> HubEnv {
    let calm = WeatherSample {
        solar_irradiance: 0.0,
        wind_speed: 0.0,
        cloud_cover: 0.0,
    };
    let load_rate = LoadRate::new(load_rate).unwrap();
    let inputs = EpisodeInputs {
        rtp: (0..slots).map(|t| DollarsPerKwh::new(price(t))).collect(),
        weather: vec![calm; slots],
        traffic: vec![
            TrafficSample {
                load_rate,
                volume_gb
            };
            slots
        ],
        discounts: DiscountSchedule::none(slots),
        strata: vec![Stratum::AlwaysCharge; slots],
    };
    HubEnv::new(HubConfig::bare(), inputs, window).unwrap()
}

/// Cheap and expensive power alternating every 12 h, shifted by `offset`.
pub(crate) fn alternating_price(offset: f64) -> impl Fn(usize) -> f64 {
    move |t| {
        let base = if (t / 12) % 2 == 0 { 0.04 } else { 0.13 };
        base + offset
    }
}
