//! The multi-hub coupling layer: shared feeder, EV demand spillover and
//! mutual observations.
//!
//! The paper's premise is a *network* of ECT-Hubs, but the plain fleet is N
//! independent replicas. This module adds the three couplings that make the
//! fleet one system:
//!
//! * **Shared feeder** ([`FeederConfig`]) — every hub's grid import is a
//!   *bid* against one aggregate distribution-feeder cap. When the summed
//!   bids exceed the cap, a deterministic proportional-fairness allocator
//!   scales every bid by the same factor `cap / total`; the shortfall is
//!   *curtailed* demand, penalised at a configurable price and surfaced in
//!   [`crate::env::SlotBreakdown::curtailed_kwh`].
//! * **EV demand spillover** ([`SpilloverConfig`]) — charging demand beyond
//!   a saturated station's capacity overflows to topology neighbours with
//!   free capacity, in deterministic ascending-lane order, proportionally to
//!   each neighbour's headroom. Demand is conserved: what no neighbour can
//!   absorb simply goes unserved (those EVs drive on).
//! * **Mutual observations** (`mutual_obs`) — each lane's observation gains
//!   a fixed [`MUTUAL_OBS_DIM`]-wide block of neighbour aggregates (mean
//!   neighbour SoC, mean neighbour load, own and mean-neighbour curtailment
//!   share) so a policy can learn to coordinate.
//!
//! Determinism contract (pinned by `tests/coupling_equivalence.rs`,
//! `tests/engine_golden.rs` and the proptests below): the feeder total is summed in `total_cmp`-sorted order,
//! so the allocation is invariant to lane permutation; the spillover
//! exchange visits origins in ascending lane index and each origin's
//! neighbours in the topology's sorted order; no phase consults wall-clock,
//! RNG or thread identity. A coupled slot is therefore a pure function of
//! the lane inputs, bit-identical across thread counts. It runs only on
//! coupled fleets: [`crate::vec_env::FleetEnv::step_batch_soa`] applies
//! every lane's battery on the slot kernel, then hands the exchange to
//! `coupled_slot`.

use ect_data::HubTopology;
use ect_types::units::DollarsPerKwh;
use serde::{Deserialize, Serialize};

/// Width of the per-lane mutual-observation block appended to the state
/// when [`CouplingConfig::mutual_obs`] is on: mean neighbour SoC fraction,
/// mean neighbour load rate, own curtailment share, mean neighbour
/// curtailment share.
pub const MUTUAL_OBS_DIM: usize = 4;

/// The shared distribution feeder every hub imports through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeederConfig {
    /// Aggregate grid-import cap across the whole fleet, kW. Bids beyond it
    /// are scaled down proportionally; `0.0` curtails all imports.
    pub cap_kw: f64,
    /// Price charged per curtailed kWh (demand the feeder could not serve),
    /// entering the reward as a penalty.
    pub curtailment_price: DollarsPerKwh,
}

impl FeederConfig {
    /// Validates cap and price.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for negative or
    /// non-finite values.
    pub fn validate(&self) -> ect_types::Result<()> {
        if !(self.cap_kw >= 0.0 && self.cap_kw.is_finite()) {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "feeder cap must be finite and non-negative, got {}",
                self.cap_kw
            )));
        }
        let p = self.curtailment_price.as_f64();
        if !(p >= 0.0 && p.is_finite()) {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "curtailment price must be finite and non-negative, got {p}"
            )));
        }
        Ok(())
    }
}

/// EV demand spillover between neighbouring hubs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpilloverConfig {
    /// Per-lane EV demand multiplier: a willing slot generates
    /// `scale × R_CS` kW of charging demand at that hub. `1.0` reproduces
    /// the uncoupled station exactly; above `1.0` the local station
    /// saturates and the excess spills to neighbours.
    pub ev_demand_scale: Vec<f64>,
}

impl SpilloverConfig {
    /// The same demand scale on every lane.
    pub fn uniform(scale: f64, lanes: usize) -> Self {
        Self {
            ev_demand_scale: vec![scale; lanes],
        }
    }

    /// Validates the per-lane scales against the lane count.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] on a count mismatch or
    /// [`ect_types::EctError::InvalidConfig`] for negative/non-finite scales.
    pub fn validate(&self, num_lanes: usize) -> ect_types::Result<()> {
        if self.ev_demand_scale.len() != num_lanes {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "spillover demand scales",
                expected: num_lanes,
                actual: self.ev_demand_scale.len(),
            });
        }
        for &s in &self.ev_demand_scale {
            if !(s >= 0.0 && s.is_finite()) {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "EV demand scale must be finite and non-negative, got {s}"
                )));
            }
        }
        Ok(())
    }
}

/// Full coupling configuration of a fleet.
///
/// With every coupling off ([`CouplingConfig::is_active`] false) the fleet
/// behaves — bit for bit — like the uncoupled engine; a single-hub fleet
/// with coupling on is valid and degenerates gracefully (empty neighbour
/// sets, the feeder cap applied to the one hub's bid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingConfig {
    /// Who neighbours whom (spillover routing and mutual observations).
    pub topology: HubTopology,
    /// Shared feeder cap, `None` = unconstrained imports.
    pub feeder: Option<FeederConfig>,
    /// EV spillover, `None` = demand never leaves its hub.
    pub spillover: Option<SpilloverConfig>,
    /// Append the [`MUTUAL_OBS_DIM`]-wide neighbour block to observations.
    pub mutual_obs: bool,
}

impl CouplingConfig {
    /// A topology-only configuration with every coupling disabled.
    pub fn inactive(topology: HubTopology) -> Self {
        Self {
            topology,
            feeder: None,
            spillover: None,
            mutual_obs: false,
        }
    }

    /// `true` when any coupling changes dynamics or observations.
    pub fn is_active(&self) -> bool {
        self.feeder.is_some() || self.spillover.is_some() || self.mutual_obs
    }

    /// Width of the mutual-observation block (0 when disabled).
    pub fn mutual_obs_dim(&self) -> usize {
        if self.mutual_obs {
            MUTUAL_OBS_DIM
        } else {
            0
        }
    }

    /// Validates the topology and sub-configs against the lane count.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] when the topology or
    /// spillover scales disagree with `num_lanes`, plus any sub-config
    /// validation error.
    pub fn validate(&self, num_lanes: usize) -> ect_types::Result<()> {
        self.topology.validate()?;
        if self.topology.num_hubs() != num_lanes {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "coupling topology hubs",
                expected: num_lanes,
                actual: self.topology.num_hubs(),
            });
        }
        if let Some(feeder) = &self.feeder {
            feeder.validate()?;
        }
        if let Some(spillover) = &self.spillover {
            spillover.validate(num_lanes)?;
        }
        Ok(())
    }
}

/// One lane's inputs to the coupled slot exchange, plain `f64`s read from
/// the slot kernel's lanes (battery already applied).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoupledLaneInputs {
    /// Base-station draw `P_BS(t)`, kW.
    pub p_bs: f64,
    /// Signed battery grid-side power `P_BP(t)`, kW (action already applied).
    pub p_bp: f64,
    /// Wind output, kW.
    pub p_wt: f64,
    /// Solar output, kW.
    pub p_pv: f64,
    /// Grid price, $/kWh.
    pub rtp: f64,
    /// Selling price after discount, $/kWh.
    pub srtp: f64,
    /// Battery operation cost charged this slot, $.
    pub op_cost: f64,
    /// Value of lost load, $/kWh.
    pub voll: f64,
    /// Scripted grid outage covers the slot.
    pub outage: bool,
    /// Charging-station capacity this slot, kW (0 during an outage — the
    /// station is shed).
    pub ev_capacity_kw: f64,
    /// Local EV charging demand this slot, kW (0 when no willing EV).
    pub ev_demand_kw: f64,
}

/// One lane's outputs from the coupled slot kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoupledLaneOutputs {
    /// The RL reward (Eq. 12 profit minus outage and curtailment penalties).
    pub reward: f64,
    /// Grid import actually allocated, kW.
    pub p_grid: f64,
    /// Charging-station power served (local + spilled-in), kW.
    pub p_cs: f64,
    /// Demand received from saturated neighbours, kW.
    pub spill_in: f64,
    /// Own excess demand absorbed by neighbours, kW.
    pub spill_out: f64,
    /// Own excess demand no neighbour could absorb, kW.
    pub ev_unserved_kw: f64,
    /// Grid import the feeder refused, kWh over the slot.
    pub curtailed_kwh: f64,
    /// Penalty charged for the curtailment, $.
    pub curtailment_penalty: f64,
    /// Curtailed share of the bid in `[0, 1]` (0 when the bid was 0) — the
    /// congestion signal mutual observations expose.
    pub curtail_share: f64,
    /// Outage-unserved hub demand, kWh.
    pub unserved_kwh: f64,
    /// Value-of-lost-load penalty, $.
    pub outage_penalty: f64,
    /// Charging revenue, $.
    pub revenue: f64,
    /// Grid cost after allocation, $.
    pub grid_cost: f64,
}

/// Advances one *coupled* fleet slot: EV spillover exchange, feeder bids,
/// proportional-fairness allocation, then per-lane accounting. Batteries
/// are already applied — `inputs[lane].p_bp` carries the result — so this
/// exchange is a pure deterministic function of its arguments.
pub(crate) fn coupled_slot(
    config: &CouplingConfig,
    inputs: &[CoupledLaneInputs],
    out: &mut [CoupledLaneOutputs],
    bid_scratch: &mut Vec<f64>,
) {
    let n = inputs.len();
    debug_assert_eq!(out.len(), n);
    debug_assert_eq!(config.topology.num_hubs(), n);

    // Phase 1 — EV spillover: serve locally, then push each origin's excess
    // to its neighbours' remaining headroom, origins in ascending lane
    // order, neighbours in the topology's sorted order. Headroom shrinks as
    // earlier origins claim it, so no station ever serves beyond capacity.
    for (lane, o) in out.iter_mut().enumerate() {
        let i = &inputs[lane];
        let served_local = i.ev_demand_kw.min(i.ev_capacity_kw);
        // p_cs accumulates served_local now, spill_in below.
        *o = CoupledLaneOutputs {
            p_cs: served_local,
            ev_unserved_kw: i.ev_demand_kw - served_local,
            ..CoupledLaneOutputs::default()
        };
    }
    for origin in 0..n {
        let excess = out[origin].ev_unserved_kw;
        if excess <= 0.0 {
            continue;
        }
        let neighbours = config.topology.neighbours(origin);
        let total_headroom: f64 = neighbours
            .iter()
            .map(|&j| inputs[j].ev_capacity_kw - out[j].p_cs)
            .sum();
        if total_headroom <= 0.0 {
            continue;
        }
        for &j in neighbours {
            let headroom = inputs[j].ev_capacity_kw - out[j].p_cs;
            let share = excess * (headroom / total_headroom);
            let take = share.min(headroom);
            out[j].p_cs += take;
            out[j].spill_in += take;
            out[origin].spill_out += take;
        }
        out[origin].ev_unserved_kw = excess - out[origin].spill_out;
    }

    // Phase 2 — feeder bids: each lane's Eq. 7 grid draw given its served
    // charging load; an outage slot bids nothing and accounts unserved
    // demand at the value of lost load, exactly as the uncoupled kernel.
    for (lane, o) in out.iter_mut().enumerate() {
        let i = &inputs[lane];
        let p_demand = ((((i.p_bs + o.p_cs) + i.p_bp) - i.p_wt) - i.p_pv).max(0.0);
        if i.outage {
            o.unserved_kwh = p_demand;
            o.outage_penalty = p_demand * i.voll;
            o.p_grid = 0.0;
        } else {
            o.p_grid = p_demand; // the bid; allocation may scale it below
        }
        o.revenue = o.p_cs * i.srtp;
    }

    // Phase 3 — proportional-fairness allocation: sum the bids in
    // `total_cmp`-sorted order (permutation invariance), then scale every
    // bid by the same factor when the cap binds.
    if let Some(feeder) = &config.feeder {
        bid_scratch.clear();
        bid_scratch.extend(out.iter().map(|o| o.p_grid));
        bid_scratch.sort_unstable_by(|a, b| a.total_cmp(b));
        let total: f64 = bid_scratch.iter().sum();
        let scale = if total <= 0.0 || total <= feeder.cap_kw {
            1.0
        } else {
            feeder.cap_kw / total
        };
        let price = feeder.curtailment_price.as_f64();
        for o in out.iter_mut() {
            let bid = o.p_grid;
            let alloc = bid * scale;
            o.p_grid = alloc;
            o.curtailed_kwh = bid - alloc;
            o.curtailment_penalty = o.curtailed_kwh * price;
            o.curtail_share = if bid > 0.0 {
                o.curtailed_kwh / bid
            } else {
                0.0
            };
        }
    }

    // Phase 4 — per-lane accounting, the same left-associated reward
    // expression as the uncoupled kernel with the curtailment penalty
    // appended (subtracting the zero penalty is bit-exact).
    for (lane, o) in out.iter_mut().enumerate() {
        let i = &inputs[lane];
        o.grid_cost = o.p_grid * i.rtp;
        o.reward =
            (((o.revenue - o.grid_cost) - i.op_cost) - o.outage_penalty) - o.curtailment_penalty;
    }
}

/// Writes one lane's [`MUTUAL_OBS_DIM`] mutual-observation block: means
/// over the lane's (sorted) neighbour set of post-step SoC fraction, load
/// rate and curtailment share, plus the lane's own curtailment share. A
/// lane without neighbours reads all-zero neighbour aggregates.
pub(crate) fn write_mutual_obs(
    topology: &HubTopology,
    lane: usize,
    soc_fractions: &[f64],
    load_rates: &[f64],
    curtail_shares: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), MUTUAL_OBS_DIM);
    let neighbours = topology.neighbours(lane);
    if neighbours.is_empty() {
        out[0] = 0.0;
        out[1] = 0.0;
        out[2] = curtail_shares[lane];
        out[3] = 0.0;
        return;
    }
    let count = neighbours.len() as f64;
    let mut soc_sum = 0.0;
    let mut load_sum = 0.0;
    let mut share_sum = 0.0;
    for &j in neighbours {
        soc_sum += soc_fractions[j];
        load_sum += load_rates[j];
        share_sum += curtail_shares[j];
    }
    out[0] = soc_sum / count;
    out[1] = load_sum / count;
    out[2] = curtail_shares[lane];
    out[3] = share_sum / count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inputs_with(bids: &[f64]) -> Vec<CoupledLaneInputs> {
        // Lanes whose Eq. 7 bid equals exactly `bids[lane]`: base-station
        // draw carries the bid, everything else zero.
        bids.iter()
            .map(|&b| CoupledLaneInputs {
                p_bs: b,
                rtp: 0.10,
                srtp: 0.50,
                ..CoupledLaneInputs::default()
            })
            .collect()
    }

    fn run(config: &CouplingConfig, inputs: &[CoupledLaneInputs]) -> Vec<CoupledLaneOutputs> {
        let mut out = vec![CoupledLaneOutputs::default(); inputs.len()];
        let mut scratch = Vec::new();
        coupled_slot(config, inputs, &mut out, &mut scratch);
        out
    }

    fn feeder_config(n: usize, cap: f64) -> CouplingConfig {
        CouplingConfig {
            topology: HubTopology::ring(n).unwrap(),
            feeder: Some(FeederConfig {
                cap_kw: cap,
                curtailment_price: DollarsPerKwh::new(0.30),
            }),
            spillover: None,
            mutual_obs: false,
        }
    }

    #[test]
    fn unconstrained_feeder_allocates_every_bid() {
        let config = feeder_config(3, 1000.0);
        let out = run(&config, &inputs_with(&[10.0, 20.0, 30.0]));
        for (o, bid) in out.iter().zip([10.0, 20.0, 30.0]) {
            assert_eq!(o.p_grid, bid);
            assert_eq!(o.curtailed_kwh, 0.0);
            assert_eq!(o.curtailment_penalty, 0.0);
        }
    }

    #[test]
    fn binding_cap_scales_bids_proportionally() {
        let config = feeder_config(3, 30.0);
        let out = run(&config, &inputs_with(&[10.0, 20.0, 30.0]));
        let total: f64 = out.iter().map(|o| o.p_grid).sum();
        assert!((total - 30.0).abs() < 1e-9, "allocated {total}");
        // Every lane keeps the same share of its bid.
        for (o, bid) in out.iter().zip([10.0, 20.0, 30.0]) {
            assert!((o.p_grid / bid - 0.5).abs() < 1e-12);
            assert!((o.curtailed_kwh - bid * 0.5).abs() < 1e-12);
            assert!((o.curtailment_penalty - o.curtailed_kwh * 0.30).abs() < 1e-12);
            assert!((o.curtail_share - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_cap_curtails_everything_without_nan() {
        let config = feeder_config(2, 0.0);
        let out = run(&config, &inputs_with(&[15.0, 0.0]));
        assert_eq!(out[0].p_grid, 0.0);
        assert_eq!(out[0].curtailed_kwh, 15.0);
        assert_eq!(out[1].curtailed_kwh, 0.0);
        assert_eq!(out[1].curtail_share, 0.0);
        for o in &out {
            assert!(o.reward.is_finite());
            assert!(o.curtail_share.is_finite());
        }
    }

    fn spillover_config(n: usize, scales: Vec<f64>) -> CouplingConfig {
        CouplingConfig {
            topology: HubTopology::ring(n).unwrap(),
            feeder: None,
            spillover: Some(SpilloverConfig {
                ev_demand_scale: scales,
            }),
            mutual_obs: false,
        }
    }

    fn ev_inputs(demand: &[f64], capacity: &[f64]) -> Vec<CoupledLaneInputs> {
        demand
            .iter()
            .zip(capacity)
            .map(|(&d, &c)| CoupledLaneInputs {
                ev_demand_kw: d,
                ev_capacity_kw: c,
                srtp: 0.50,
                rtp: 0.10,
                ..CoupledLaneInputs::default()
            })
            .collect()
    }

    #[test]
    fn saturated_station_spills_to_idle_neighbours() {
        // Lane 0 wants 2× its capacity; lanes 1 and 2 are idle. On a
        // 3-ring, both neighbours split the 120 kW excess by headroom.
        let config = spillover_config(3, vec![2.0, 1.0, 1.0]);
        let out = run(
            &config,
            &ev_inputs(&[240.0, 0.0, 0.0], &[120.0, 120.0, 120.0]),
        );
        assert_eq!(out[0].p_cs, 120.0);
        assert_eq!(out[0].spill_out, 120.0);
        assert_eq!(out[0].ev_unserved_kw, 0.0);
        assert_eq!(out[1].spill_in, 60.0);
        assert_eq!(out[2].spill_in, 60.0);
        // Conservation.
        let served: f64 = out.iter().map(|o| o.p_cs).sum();
        assert_eq!(served, 240.0);
    }

    #[test]
    fn spillover_beyond_all_headroom_goes_unserved() {
        // 2 hubs, both saturated: nothing can move.
        let config = spillover_config(2, vec![3.0, 1.0]);
        let out = run(&config, &ev_inputs(&[360.0, 120.0], &[120.0, 120.0]));
        assert_eq!(out[0].spill_out, 0.0);
        assert_eq!(out[0].ev_unserved_kw, 240.0);
        assert_eq!(out[1].p_cs, 120.0);
    }

    #[test]
    fn single_hub_coupling_degenerates_gracefully() {
        // One hub: no neighbours to spill to, the feeder caps its own bid.
        let config = CouplingConfig {
            topology: HubTopology::disconnected(1).unwrap(),
            feeder: Some(FeederConfig {
                cap_kw: 5.0,
                curtailment_price: DollarsPerKwh::new(0.25),
            }),
            spillover: Some(SpilloverConfig::uniform(2.0, 1)),
            mutual_obs: true,
        };
        config.validate(1).unwrap();
        let out = run(&config, &ev_inputs(&[240.0, 0.0][..1], &[120.0][..]));
        assert_eq!(out[0].p_cs, 120.0);
        assert_eq!(out[0].ev_unserved_kw, 120.0);
        assert_eq!(out[0].spill_out, 0.0);
        // Bid = 120 kW, cap = 5 kW.
        assert!((out[0].p_grid - 5.0).abs() < 1e-12);
        assert!((out[0].curtailed_kwh - 115.0).abs() < 1e-12);
        assert!(out[0].reward.is_finite());
        // Mutual obs over the empty neighbour set are zero except the own
        // curtailment share.
        let mut block = [0.0; MUTUAL_OBS_DIM];
        write_mutual_obs(
            &config.topology,
            0,
            &[0.5],
            &[0.4],
            &[out[0].curtail_share],
            &mut block,
        );
        assert_eq!(block[0], 0.0);
        assert_eq!(block[1], 0.0);
        assert!((block[2] - out[0].curtail_share).abs() < 1e-15);
        assert_eq!(block[3], 0.0);
    }

    #[test]
    fn mutual_obs_averages_sorted_neighbours() {
        let topology = HubTopology::ring(4).unwrap();
        let socs = [0.1, 0.2, 0.3, 0.4];
        let loads = [0.5, 0.6, 0.7, 0.8];
        let shares = [0.0, 0.25, 0.5, 0.75];
        let mut block = [0.0; MUTUAL_OBS_DIM];
        // Lane 0's ring neighbours are 1 and 3.
        write_mutual_obs(&topology, 0, &socs, &loads, &shares, &mut block);
        assert!((block[0] - (0.2 + 0.4) / 2.0).abs() < 1e-15);
        assert!((block[1] - (0.6 + 0.8) / 2.0).abs() < 1e-15);
        assert!((block[2] - 0.0).abs() < 1e-15);
        assert!((block[3] - (0.25 + 0.75) / 2.0).abs() < 1e-15);
    }

    #[test]
    fn outage_lane_bids_nothing_and_accounts_voll() {
        let config = feeder_config(2, 100.0);
        let mut inputs = inputs_with(&[10.0, 20.0]);
        inputs[0].outage = true;
        inputs[0].voll = 2.0;
        let out = run(&config, &inputs);
        assert_eq!(out[0].p_grid, 0.0);
        assert_eq!(out[0].unserved_kwh, 10.0);
        assert!((out[0].outage_penalty - 20.0).abs() < 1e-12);
        assert_eq!(out[1].p_grid, 20.0);
    }

    #[test]
    fn config_validation_catches_mismatches() {
        let ok = CouplingConfig {
            topology: HubTopology::ring(3).unwrap(),
            feeder: Some(FeederConfig {
                cap_kw: 50.0,
                curtailment_price: DollarsPerKwh::new(0.2),
            }),
            spillover: Some(SpilloverConfig::uniform(1.5, 3)),
            mutual_obs: true,
        };
        ok.validate(3).unwrap();
        assert!(ok.is_active());
        assert_eq!(ok.mutual_obs_dim(), MUTUAL_OBS_DIM);
        // Topology size mismatch.
        assert!(ok.validate(4).is_err());
        // Spillover scale count mismatch.
        let mut bad = ok.clone();
        bad.spillover = Some(SpilloverConfig::uniform(1.5, 2));
        assert!(bad.validate(3).is_err());
        // Negative cap / price / scale.
        let mut bad = ok.clone();
        bad.feeder.as_mut().unwrap().cap_kw = -1.0;
        assert!(bad.validate(3).is_err());
        let mut bad = ok.clone();
        bad.feeder.as_mut().unwrap().curtailment_price = DollarsPerKwh::new(f64::NAN);
        assert!(bad.validate(3).is_err());
        let mut bad = ok.clone();
        bad.spillover.as_mut().unwrap().ev_demand_scale[1] = -0.5;
        assert!(bad.validate(3).is_err());
        // Inactive config reports itself.
        let inactive = CouplingConfig::inactive(HubTopology::ring(3).unwrap());
        assert!(!inactive.is_active());
        assert_eq!(inactive.mutual_obs_dim(), 0);
        inactive.validate(3).unwrap();
    }

    #[test]
    fn coupling_config_serde_round_trips() {
        let config = CouplingConfig {
            topology: HubTopology::ring(4).unwrap(),
            feeder: Some(FeederConfig {
                cap_kw: 75.0,
                curtailment_price: DollarsPerKwh::new(0.4),
            }),
            spillover: Some(SpilloverConfig::uniform(1.25, 4)),
            mutual_obs: true,
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: CouplingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn feeder_allocation_respects_cap_and_bids(
            bids in proptest::collection::vec(0.0f64..500.0, 1..12),
            cap in 0.0f64..400.0,
        ) {
            let config = feeder_config(bids.len(), cap);
            let out = run(&config, &inputs_with(&bids));
            let total: f64 = out.iter().map(|o| o.p_grid).sum();
            let bid_total: f64 = bids.iter().sum();
            // Total allocation never exceeds the cap (when it binds), up to
            // a relative rounding epsilon from the per-lane scaling.
            let bound = cap.max(0.0).min(bid_total);
            prop_assert!(
                total <= bound + 1e-9 * (1.0 + bid_total),
                "allocated {total} > bound {bound}"
            );
            for (o, &bid) in out.iter().zip(&bids) {
                // No lane receives more than it bid, nothing is negative.
                prop_assert!(o.p_grid <= bid + 1e-12);
                prop_assert!(o.p_grid >= 0.0);
                prop_assert!(o.curtailed_kwh >= -1e-12);
                prop_assert!(o.reward.is_finite());
                prop_assert!(o.curtail_share.is_finite());
                // Allocation + curtailment reconstructs the bid exactly.
                prop_assert!((o.p_grid + o.curtailed_kwh - bid).abs() < 1e-9);
            }
        }

        #[test]
        fn feeder_allocation_is_permutation_invariant(
            bids in proptest::collection::vec(0.0f64..500.0, 2..10),
            cap in 0.0f64..300.0,
            rotate in 1usize..9,
        ) {
            let n = bids.len();
            let config = feeder_config(n, cap);
            let out = run(&config, &inputs_with(&bids));
            // Rotate the lanes: lane i's bid moves to lane (i+rotate) % n.
            let rotate = rotate % n;
            let mut rotated = bids.clone();
            rotated.rotate_right(rotate);
            let out_rot = run(&config, &inputs_with(&rotated));
            for (lane, share) in out.iter().enumerate() {
                let moved = (lane + rotate) % n;
                prop_assert_eq!(
                    share.p_grid.to_bits(),
                    out_rot[moved].p_grid.to_bits(),
                    "allocation changed under permutation at lane {}", lane
                );
                prop_assert_eq!(
                    share.curtailed_kwh.to_bits(),
                    out_rot[moved].curtailed_kwh.to_bits()
                );
            }
        }

        #[test]
        fn spillover_conserves_total_demand(
            scales in proptest::collection::vec(0.0f64..3.0, 2..10),
            willing_mask in proptest::collection::vec(0usize..2, 10),
        ) {
            let n = scales.len();
            let rate = 120.0;
            let demand: Vec<f64> = scales
                .iter()
                .enumerate()
                .map(|(i, &s)| if willing_mask[i] == 1 { rate * s } else { 0.0 })
                .collect();
            let capacity = vec![rate; n];
            let config = spillover_config(n, scales.clone());
            let out = run(&config, &ev_inputs(&demand, &capacity));
            let total_demand: f64 = demand.iter().sum();
            let served: f64 = out.iter().map(|o| o.p_cs).sum();
            let unserved: f64 = out.iter().map(|o| o.ev_unserved_kw).sum();
            // No demand created or destroyed.
            prop_assert!(
                (served + unserved - total_demand).abs() < 1e-6 * (1.0 + total_demand),
                "served {served} + unserved {unserved} != demand {total_demand}"
            );
            // No station serves beyond its capacity.
            for o in &out {
                prop_assert!(o.p_cs <= rate + 1e-9);
                prop_assert!(o.spill_in >= 0.0 && o.spill_out >= 0.0);
            }
        }

        #[test]
        fn no_spillover_when_no_station_saturates(
            scales in proptest::collection::vec(0.0f64..1.0, 2..10),
        ) {
            let n = scales.len();
            let rate = 120.0;
            let demand: Vec<f64> = scales.iter().map(|&s| rate * s).collect();
            let config = spillover_config(n, scales.clone());
            let out = run(&config, &ev_inputs(&demand, &vec![rate; n]));
            for (o, &d) in out.iter().zip(&demand) {
                prop_assert_eq!(o.spill_in, 0.0);
                prop_assert_eq!(o.spill_out, 0.0);
                prop_assert_eq!(o.p_cs.to_bits(), d.to_bits());
            }
        }
    }
}
