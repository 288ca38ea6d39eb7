//! Golden checksums of the stepping engine.
//!
//! The slot kernel (battery action, Eq. 7 power balance, Eqs. 8–12
//! accounting, Eq. 24 observation) promises bit-identical trajectories.
//! These tests pin that promise to numbers: an FNV-1a hash over the bits of
//! every per-slot observation, reward and `SlotBreakdown` field over full
//! episodes with cycled actions, for
//!
//! * (a) an uncoupled fleet over the whole scenario library, with the
//!   `rolling-blackout` outages, discount schedules and scenario-feature
//!   lane blocks;
//! * (b) an active coupled fleet with a binding feeder, EV spillover and
//!   mutual observations, over a world with scripted outages;
//! * (c) a single `HubEnv` episode under the `GreedyPrice` rule.
//!
//! A change to the slot physics or the observation layout that moves a
//! single bit of any of them changes a hash.

use ect_env::env::SlotBreakdown;
use ect_env::fleet::{env_for_hub, fleet_env_for_hubs, fleet_env_for_scenarios_augmented};
use ect_env::vec_env::FleetEnv;
use ect_hub::prelude::*;

const WINDOW: usize = 6;
const SLOTS: usize = 24 * 7;

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn slice(&mut self, values: &[f64]) {
        for &v in values {
            self.f64(v);
        }
    }

    fn breakdown(&mut self, b: &SlotBreakdown) {
        self.u64(b.slot as u64);
        for v in [
            b.p_bs.as_f64(),
            b.p_cs.as_f64(),
            b.p_bp.as_f64(),
            b.p_wt.as_f64(),
            b.p_pv.as_f64(),
            b.p_grid.as_f64(),
            b.srtp.as_f64(),
            b.rtp.as_f64(),
            b.revenue.as_f64(),
            b.grid_cost.as_f64(),
            b.bp_cost.as_f64(),
            b.outage_penalty.as_f64(),
            b.unserved_kwh,
            b.reward.as_f64(),
            b.soc_kwh,
            b.curtailed_kwh,
            b.curtailment_penalty.as_f64(),
            b.spill_in.as_f64(),
            b.spill_out.as_f64(),
        ] {
            self.f64(v);
        }
        self.u64(b.effective_action.index() as u64);
        self.u64(u64::from(b.ev_charged));
    }
}

/// A discount schedule that makes incentive strata charge every few slots.
fn discounts(lane: usize) -> DiscountSchedule {
    DiscountSchedule::from_levels(
        (0..SLOTS)
            .map(|t| {
                if (t + lane).is_multiple_of(5) {
                    0.2
                } else {
                    0.0
                }
            })
            .collect(),
    )
    .unwrap()
}

fn cycled(t: usize, lane: usize) -> BpAction {
    [BpAction::Charge, BpAction::Discharge, BpAction::Idle][(t + 2 * lane) % 3]
}

/// Spread-out initial SoCs, both bounds included (the battery clamps them).
fn initial_soc(lanes: usize) -> Vec<f64> {
    (0..lanes)
        .map(|lane| [0.0, 0.35, 0.6, 1.0][lane % 4])
        .collect()
}

/// Checksums of one full fleet episode: `(rollout obs + audit trail,
/// step_batch_soa obs + rewards, audit-trail facts)`.
fn fleet_checksums(fleet: &FleetEnv) -> (u64, u64, TrailFacts) {
    let n = fleet.num_lanes();
    let socs = initial_soc(n);

    // The audit trail, with the observation each action was chosen on.
    let mut trail_fleet = fleet.clone();
    let mut hash = Fnv::new();
    let mut calls = 0usize;
    let (totals, trails) = trail_fleet.rollout(&socs, |lane, obs| {
        hash.slice(obs);
        let t = calls / n;
        calls += 1;
        cycled(t, lane)
    });
    let mut obs = vec![0.0; n * fleet.state_dim()];
    trail_fleet.observe_all_into(&mut obs);
    hash.slice(&obs);
    let mut facts = TrailFacts::default();
    for (total, trail) in totals.iter().zip(&trails) {
        assert_eq!(trail.len(), fleet.horizon());
        hash.f64(total.as_f64());
        for b in trail {
            hash.breakdown(b);
            facts.observe(b);
        }
    }
    let trail_sum = hash.0;

    // Observations and rewards of the training-side stepping call.
    let mut soa_fleet = fleet.clone();
    let mut hash = Fnv::new();
    soa_fleet.reset(&socs);
    soa_fleet.observe_all_into(&mut obs);
    hash.slice(&obs);
    let mut actions = vec![BpAction::Idle; n];
    for t in 0..fleet.horizon() {
        for (lane, action) in actions.iter_mut().enumerate() {
            *action = cycled(t, lane);
        }
        let step = soa_fleet.step_batch_soa(&actions);
        hash.slice(step.rewards);
        assert_eq!(step.done, t + 1 == fleet.horizon());
        soa_fleet.observe_all_into(&mut obs);
        hash.slice(&obs);
    }
    (trail_sum, hash.0, facts)
}

/// What the trail exercised, so a pin cannot silently cover dead branches.
#[derive(Debug, Default)]
struct TrailFacts {
    outage_slots: usize,
    curtailed_slots: usize,
    spill_slots: usize,
    ev_slots: usize,
}

impl TrailFacts {
    fn observe(&mut self, b: &SlotBreakdown) {
        self.outage_slots += usize::from(b.outage_penalty.as_f64() > 0.0);
        self.curtailed_slots += usize::from(b.curtailed_kwh > 0.0);
        self.spill_slots += usize::from(b.spill_in.as_f64() > 0.0);
        self.ev_slots += usize::from(b.ev_charged);
    }
}

fn world_config(num_hubs: u32) -> WorldConfig {
    WorldConfig {
        num_hubs,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    }
}

#[test]
fn uncoupled_scenario_fleet_matches_golden_checksums() {
    let config = world_config(2);
    let lanes: Vec<(ScenarioSpec, HubId)> = scenario_library(SLOTS)
        .into_iter()
        .flat_map(|spec| [(spec.clone(), HubId::new(0)), (spec, HubId::new(1))])
        .collect();
    let n = lanes.len();
    let schedules: Vec<DiscountSchedule> = (0..n).map(discounts).collect();
    let mut rngs: Vec<EctRng> = (0..n as u64)
        .map(|lane| EctRng::seed_from(0xE6_0001 ^ (lane << 20)))
        .collect();
    let fleet = fleet_env_for_scenarios_augmented(
        &config,
        &lanes,
        0,
        SLOTS,
        &schedules,
        WINDOW,
        &ObsAugmentation::SCENARIO,
        &mut rngs,
    )
    .unwrap();
    assert!(fleet.aug_dim() > 0);
    let (trail, soa, facts) = fleet_checksums(&fleet);
    assert!(facts.outage_slots > 0, "{facts:?}");
    assert!(facts.ev_slots > 0, "{facts:?}");
    assert_eq!(facts.curtailed_slots + facts.spill_slots, 0, "{facts:?}");
    assert_eq!(
        (trail, soa),
        (6037202177824865603, 8254058083722196775),
        "uncoupled fleet checksums (trail, step_batch_soa)"
    );
}

#[test]
fn coupled_fleet_matches_golden_checksums() {
    const HUBS: usize = 4;
    let spec = scenario_by_name("rolling-blackout", SLOTS).unwrap();
    let world = WorldDataset::generate_scenario(world_config(HUBS as u32), &spec).unwrap();
    let hubs: Vec<HubId> = (0..HUBS as u32).map(HubId::new).collect();
    let schedules: Vec<DiscountSchedule> = (0..HUBS).map(discounts).collect();
    let mut rngs: Vec<EctRng> = (0..HUBS as u64)
        .map(|lane| EctRng::seed_from(0xE6_0002 ^ (lane << 20)))
        .collect();
    let coupling = CouplingConfig {
        topology: HubTopology::ring(HUBS).unwrap(),
        feeder: Some(FeederConfig {
            cap_kw: 60.0,
            curtailment_price: DollarsPerKwh::new(0.3),
        }),
        spillover: Some(SpilloverConfig {
            ev_demand_scale: vec![1.8, 0.3, 1.5, 0.6],
        }),
        mutual_obs: true,
    };
    let fleet = fleet_env_for_hubs(&world, &hubs, 0, SLOTS, &schedules, WINDOW, &mut rngs)
        .unwrap()
        .with_coupling(coupling)
        .unwrap();
    assert_eq!(fleet.mutual_obs_dim(), MUTUAL_OBS_DIM);
    let (trail, soa, facts) = fleet_checksums(&fleet);
    assert!(facts.outage_slots > 0, "{facts:?}");
    assert!(facts.curtailed_slots > 0, "{facts:?}");
    assert!(facts.spill_slots > 0, "{facts:?}");
    assert_eq!(
        (trail, soa),
        (10893826115522226789, 5273391032954266521),
        "coupled fleet checksums (trail, step_batch_soa)"
    );
}

/// Hashes every state a scheduler is shown, then defers to the rule.
struct Hashing<'a, S> {
    inner: S,
    hash: &'a mut Fnv,
}

impl<S: Scheduler> Scheduler for Hashing<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn act(&mut self, fleet: &FleetEnv, lane: usize) -> BpAction {
        let mut obs = vec![0.0; fleet.state_dim()];
        fleet.observe_into(lane, &mut obs);
        self.hash.slice(&obs);
        self.inner.act(fleet, lane)
    }
}

#[test]
fn hub_env_greedy_price_episode_matches_golden_checksum() {
    let spec = scenario_by_name("rolling-blackout", SLOTS).unwrap();
    let world = WorldDataset::generate_scenario(world_config(2), &spec).unwrap();
    let mut rng = EctRng::seed_from(0xE6_0003);
    let mut env = env_for_hub(
        &world,
        HubId::new(1),
        0,
        SLOTS,
        discounts(1),
        WINDOW,
        &mut rng,
    )
    .unwrap()
    .with_augmentation(vec![0.25, -0.5]);
    let mut hash = Fnv::new();
    let (total, trail) = {
        let mut scheduler = Hashing {
            inner: GreedyPrice::default_thresholds(),
            hash: &mut hash,
        };
        ect_drl::run_episode(&mut env, &mut scheduler, 0.05)
    };
    assert_eq!(trail.len(), SLOTS);
    hash.f64(total);
    let mut facts = TrailFacts::default();
    for b in &trail {
        hash.breakdown(b);
        facts.observe(b);
    }
    hash.slice(&env.observe());
    assert!(env.outages().iter().any(|&o| o));
    assert!(facts.ev_slots > 0, "{facts:?}");
    assert_eq!(hash.0, 13273370921562592410, "HubEnv greedy-price checksum");
}
