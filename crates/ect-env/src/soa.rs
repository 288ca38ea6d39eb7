//! Struct-of-arrays slot lanes: the one slot kernel.
//!
//! [`SlotLanes`] precomputes everything about a fleet slot that does not
//! depend on the battery action into contiguous per-slot `f64` arrays —
//! loads, renewables, prices, revenue, outage flags and the five
//! pre-normalised observation windows — deduplicated per *group* of lanes
//! that share one `(HubConfig, HubSeries)` (a 100k-lane fleet replicated
//! from a 12-hub world holds 12 groups, not 100k copies). What remains per
//! lane is the battery recurrence: flat constant lanes plus the live SoC
//! lane — the only copy of each hub's state of charge — iterated
//! branch-light in [`SlotLanes::step`].
//!
//! Every [`crate::vec_env::FleetEnv`] and every [`crate::env::HubEnv`] (a
//! one-lane fleet) steps here; a coupled fleet swaps the per-lane power
//! balance for the [`crate::coupling`] exchange. The per-slot
//! [`SlotBreakdown`] audit trail is never stored: [`SlotLanes::breakdown`]
//! assembles it on demand from the slot cell, the live SoC and the
//! recorded battery power of the last step.
//!
//! The kernel reproduces the paper's equations operand for operand (same
//! order, same unit-type arithmetic unwrapped to plain `f64`), so its bits
//! equal the readable one-hub reference kept under `#[cfg(test)]`
//! (`env::oracle::compute_slot` / `env::oracle::write_observation`); the
//! `vec_env` proptest and `tests/engine_golden.rs` pin this.

use crate::battery::BpAction;
use crate::coupling::{CoupledLaneInputs, CoupledLaneOutputs};
use crate::env::{SlotBreakdown, IRRADIANCE_SCALE, PRICE_SCALE, WIND_SCALE};
use crate::hub::HubConfig;
use crate::vec_env::HubSeries;
use ect_types::units::{DollarsPerKwh, KiloWatt, Money};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of one lane's shared inputs: the data pointers of its six
/// `Arc`-held series. Lanes replicated from one world compare equal here
/// without touching the series contents.
type SeriesKey = [usize; 6];

fn series_key(series: &HubSeries) -> SeriesKey {
    [
        series.rtp.as_ptr() as usize,
        series.weather.as_ptr() as usize,
        series.traffic.as_ptr() as usize,
        Arc::as_ptr(&series.discounts) as usize,
        series.strata.as_ptr() as usize,
        series.outages.as_ptr() as usize,
    ]
}

/// The slot kernel of a fleet: per-group slot lanes plus per-lane battery
/// lanes and live state. Built once by [`crate::vec_env::FleetEnv::new`].
#[derive(Debug, Clone)]
pub(crate) struct SlotLanes {
    horizon: usize,
    groups: usize,
    /// Lane → group index.
    group_of: Vec<u32>,
    // Per-(group, slot) dynamics lanes, group-major: group `g`, slot `t`
    // lives at `g * horizon + t`.
    load_sum: Vec<f64>,
    wt: Vec<f64>,
    pv: Vec<f64>,
    rtp: Vec<f64>,
    revenue: Vec<f64>,
    outage: Vec<bool>,
    // The un-fused base-station draw, the raw selling price, and the EV
    // willingness flag (`load_sum`/`revenue` fuse the charging station in,
    // which the coupling layer and the audit trail must re-decide).
    p_bs: Vec<f64>,
    srtp: Vec<f64>,
    willing: Vec<bool>,
    // Per-(group, slot) observation lanes, already normalised.
    obs_rtp: Vec<f64>,
    obs_solar: Vec<f64>,
    obs_wind: Vec<f64>,
    obs_load: Vec<f64>,
    obs_srtp: Vec<f64>,
    // Per-lane battery constants (duplicated per lane so the inner loop
    // indexes flat arrays only).
    soc_min: Vec<f64>,
    soc_max: Vec<f64>,
    full_gain: Vec<f64>,
    eta_ch: Vec<f64>,
    full_draw: Vec<f64>,
    eta_dch: Vec<f64>,
    op_cost: Vec<f64>,
    voll: Vec<f64>,
    capacity: Vec<f64>,
    /// Charging-station rate `R_CS` per lane, kW.
    cs_rate: Vec<f64>,
    // Per-lane live state: the state of charge, kWh, and the signed
    // grid-side battery power of the last applied action, kW (its sign is
    // the effective action, see `effective_action`).
    soc: Vec<f64>,
    last_p_bp: Vec<f64>,
}

/// One `(group, slot)` cell's action-independent values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotCell {
    pub p_bs: f64,
    pub wt: f64,
    pub pv: f64,
    pub rtp: f64,
    pub srtp: f64,
    pub willing: bool,
    pub outage: bool,
    /// Raw load rate in `[0, 1]` (the `obs_load` lane), for mutual obs.
    pub load_rate: f64,
}

/// A scripted outage degrades `Charge` to `Idle`: grid-side charging has
/// no source while the grid is out.
fn outage_degraded(action: BpAction, outage: bool) -> BpAction {
    if outage && action == BpAction::Charge {
        BpAction::Idle
    } else {
        action
    }
}

/// The action a battery effectively took, read off its signed grid-side
/// power: a charge that moved draws `gain / η_ch > 0`, a discharge that
/// moved delivers `−η_dch · drawn < 0` (efficiencies are validated
/// positive), and a clamped or idle slot is exactly `0.0`.
fn effective_action(p_bp: f64) -> BpAction {
    if p_bp > 0.0 {
        BpAction::Charge
    } else if p_bp < 0.0 {
        BpAction::Discharge
    } else {
        BpAction::Idle
    }
}

impl SlotLanes {
    /// Builds the slot lanes of the given fleet lanes, every battery at
    /// SoC 0 (the caller seeds it). Groups lanes by series identity (`Arc`
    /// data pointers) plus config equality, then precomputes every
    /// action-independent slot quantity once per group.
    pub(crate) fn build(configs: &[HubConfig], series: &[HubSeries]) -> Self {
        let n = configs.len();
        let horizon = series.first().map_or(0, HubSeries::len);

        // Group assignment: same series pointers AND equal config.
        let mut buckets: HashMap<SeriesKey, Vec<u32>> = HashMap::new();
        let mut group_of = vec![0u32; n];
        let mut reps: Vec<usize> = Vec::new();
        for lane in 0..n {
            let key = series_key(&series[lane]);
            let candidates = buckets.entry(key).or_default();
            let group = candidates
                .iter()
                .copied()
                .find(|&g| configs[reps[g as usize]] == configs[lane]);
            let g = match group {
                Some(g) => g,
                None => {
                    let g = u32::try_from(reps.len()).expect("group count fits u32");
                    reps.push(lane);
                    candidates.push(g);
                    g
                }
            };
            group_of[lane] = g;
        }
        let groups = reps.len();

        // Per-(group, slot) lanes.
        let cells = groups * horizon;
        let mut load_sum = vec![0.0; cells];
        let mut wt = vec![0.0; cells];
        let mut pv = vec![0.0; cells];
        let mut rtp = vec![0.0; cells];
        let mut revenue = vec![0.0; cells];
        let mut outage = vec![false; cells];
        let mut p_bs_lane = vec![0.0; cells];
        let mut srtp_lane = vec![0.0; cells];
        let mut willing = vec![false; cells];
        let mut obs_rtp = vec![0.0; cells];
        let mut obs_solar = vec![0.0; cells];
        let mut obs_wind = vec![0.0; cells];
        let mut obs_load = vec![0.0; cells];
        let mut obs_srtp = vec![0.0; cells];
        for (g, &rep) in reps.iter().enumerate() {
            let config = &configs[rep];
            let lane_series = &series[rep];
            let base_price = config.tariff.base_price.as_f64();
            for t in 0..horizon {
                let cell = g * horizon + t;
                let level = lane_series.discounts.level(t);
                let out = lane_series.outages[t];
                // Eqs. 1–2 and 11. During an outage the charging station
                // is shed (the ride-through doctrine of `crate::blackout`).
                // `p_bs + p_cs` is the first (left-assoc) addition of
                // Eq. 7, so pre-summing it preserves bits.
                let p_bs = config
                    .base_station
                    .power(lane_series.traffic[t].load_rate)
                    .as_f64();
                let discounted = level > 0.0;
                let ev_charged = !out && lane_series.strata[t].outcome(discounted);
                let p_cs = config.charging_station.power(ev_charged).as_f64();
                let srtp = config.tariff.price_with_discount(level);
                load_sum[cell] = p_bs + p_cs;
                wt[cell] = config.plant.wt_power(&lane_series.weather[t]).as_f64();
                pv[cell] = config.plant.pv_power(&lane_series.weather[t]).as_f64();
                rtp[cell] = lane_series.rtp[t].as_f64();
                revenue[cell] = p_cs * srtp.as_f64();
                outage[cell] = out;
                p_bs_lane[cell] = p_bs;
                srtp_lane[cell] = srtp.as_f64();
                willing[cell] = ev_charged;
                // The five Eq. 24 windows, normalised.
                obs_rtp[cell] = lane_series.rtp[t].as_f64() / PRICE_SCALE;
                obs_solar[cell] = lane_series.weather[t].solar_irradiance / IRRADIANCE_SCALE;
                obs_wind[cell] = lane_series.weather[t].wind_speed / WIND_SCALE;
                obs_load[cell] = lane_series.traffic[t].load_rate.as_f64();
                obs_srtp[cell] = srtp.as_f64() / base_price;
            }
        }

        // Per-lane battery constants, unwrapped through the same unit-type
        // expressions `BatteryPoint::apply` evaluates.
        let mut soc_min = vec![0.0; n];
        let mut soc_max = vec![0.0; n];
        let mut full_gain = vec![0.0; n];
        let mut eta_ch = vec![0.0; n];
        let mut full_draw = vec![0.0; n];
        let mut eta_dch = vec![0.0; n];
        let mut op_cost = vec![0.0; n];
        let mut voll = vec![0.0; n];
        let mut capacity = vec![0.0; n];
        let mut cs_rate = vec![0.0; n];
        for (lane, config) in configs.iter().enumerate() {
            let cfg = &config.battery;
            soc_min[lane] = cfg.soc_min_kwh().as_f64();
            soc_max[lane] = cfg.soc_max_kwh().as_f64();
            full_gain[lane] = cfg.charge_efficiency * (cfg.charge_rate_kw * 1.0);
            eta_ch[lane] = cfg.charge_efficiency.as_f64();
            full_draw[lane] = cfg.discharge_rate_kw * 1.0;
            eta_dch[lane] = cfg.discharge_efficiency.as_f64();
            op_cost[lane] = cfg.op_cost_per_slot;
            voll[lane] = config.outage_voll.as_f64();
            capacity[lane] = cfg.capacity_kwh;
            cs_rate[lane] = config.charging_station.rate_kw;
        }

        Self {
            horizon,
            groups,
            group_of,
            load_sum,
            wt,
            pv,
            rtp,
            revenue,
            outage,
            p_bs: p_bs_lane,
            srtp: srtp_lane,
            willing,
            obs_rtp,
            obs_solar,
            obs_wind,
            obs_load,
            obs_srtp,
            soc_min,
            soc_max,
            full_gain,
            eta_ch,
            full_draw,
            eta_dch,
            op_cost,
            voll,
            capacity,
            cs_rate,
            soc: vec![0.0; n],
            last_p_bp: vec![0.0; n],
        }
    }

    /// Number of deduplicated `(config, series)` groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups
    }

    /// Current SoC of one lane, kWh.
    pub(crate) fn soc(&self, lane: usize) -> f64 {
        self.soc[lane]
    }

    /// Seeds one lane's SoC, kWh (already clamped into its bounds).
    pub(crate) fn set_soc(&mut self, lane: usize, soc_kwh: f64) {
        self.soc[lane] = soc_kwh;
    }

    /// Applies one battery action to one lane (the action must already be
    /// outage-degraded), updating the live SoC lane and the battery-power
    /// record, and returning `(p_bp, op_cost)`. Eqs. 3–5 and 8 with the
    /// bound-respecting semantics of `BatteryPoint::apply`, bit for bit
    /// (same `1e-9` epsilon, same min/divide order); shared by
    /// [`Self::step`] and the coupled stepping path in `vec_env`.
    pub(crate) fn apply_action(&mut self, lane: usize, action: BpAction) -> (f64, f64) {
        const EPS: f64 = 1e-9;
        let soc = self.soc[lane];
        let (p_bp, new_soc, active) = match action {
            BpAction::Charge => {
                let headroom = self.soc_max[lane] - soc;
                let gain = headroom.min(self.full_gain[lane]);
                if gain <= EPS {
                    (0.0, soc, false)
                } else {
                    (gain / self.eta_ch[lane], soc + gain, true)
                }
            }
            BpAction::Discharge => {
                let available = soc - self.soc_min[lane];
                let drawn = available.min(self.full_draw[lane]);
                if drawn <= EPS {
                    (0.0, soc, false)
                } else {
                    (-(self.eta_dch[lane] * drawn), soc - drawn, true)
                }
            }
            BpAction::Idle => (0.0, soc, false),
        };
        self.soc[lane] = new_soc;
        self.last_p_bp[lane] = p_bp;
        let op_cost = if active { self.op_cost[lane] } else { 0.0 };
        (p_bp, op_cost)
    }

    /// Advances one uncoupled lane one slot and returns its reward: a
    /// scripted outage degrades `Charge` to `Idle`, then the battery
    /// recurrence ([`Self::apply_action`]), the Eq. 7 power balance (an
    /// outage turns the grid draw into unserved energy at the value of
    /// lost load) and the Eq. 12 profit.
    #[inline]
    pub(crate) fn step(&mut self, lane: usize, t: usize, action: BpAction) -> f64 {
        debug_assert!(t < self.horizon);
        let cell = self.group_of[lane] as usize * self.horizon + t;
        let out = self.outage[cell];
        let (p_bp, op_cost) = self.apply_action(lane, outage_degraded(action, out));
        let p_demand = (((self.load_sum[cell] + p_bp) - self.wt[cell]) - self.pv[cell]).max(0.0);
        let p_grid = if out { 0.0 } else { p_demand };
        let grid_cost = p_grid * self.rtp[cell];
        let penalty = if out { p_demand * self.voll[lane] } else { 0.0 };
        ((self.revenue[cell] - grid_cost) - op_cost) - penalty
    }

    /// Action-independent values of one lane's `(group, slot)` cell.
    pub(crate) fn slot_cell(&self, lane: usize, t: usize) -> SlotCell {
        let cell = self.group_of[lane] as usize * self.horizon + t;
        SlotCell {
            p_bs: self.p_bs[cell],
            wt: self.wt[cell],
            pv: self.pv[cell],
            rtp: self.rtp[cell],
            srtp: self.srtp[cell],
            willing: self.willing[cell],
            outage: self.outage[cell],
            load_rate: self.obs_load[cell],
        }
    }

    /// Applies one coupled lane's battery action for slot `t` and returns
    /// its inputs to the [`crate::coupling`] exchange: the local EV demand
    /// is `demand_scale × R_CS` when an EV is willing, and an outage sheds
    /// the station's capacity.
    pub(crate) fn coupled_inputs(
        &mut self,
        lane: usize,
        t: usize,
        action: BpAction,
        demand_scale: f64,
    ) -> CoupledLaneInputs {
        let cell = self.slot_cell(lane, t);
        let (p_bp, op_cost) = self.apply_action(lane, outage_degraded(action, cell.outage));
        let rate = self.cs_rate[lane];
        CoupledLaneInputs {
            p_bs: cell.p_bs,
            p_bp,
            p_wt: cell.wt,
            p_pv: cell.pv,
            rtp: cell.rtp,
            srtp: cell.srtp,
            op_cost,
            voll: self.voll[lane],
            outage: cell.outage,
            ev_capacity_kw: if cell.outage { 0.0 } else { rate },
            ev_demand_kw: if cell.willing {
                rate * demand_scale
            } else {
                0.0
            },
        }
    }

    /// SoC of one lane as a fraction of capacity.
    pub(crate) fn soc_fraction(&self, lane: usize) -> f64 {
        self.soc[lane] / self.capacity[lane]
    }

    /// The audit trail of slot `t`, which lane `lane` has just stepped:
    /// assembled from the slot cell, the recorded battery power and the
    /// live SoC, plus the exchange outputs on a coupled fleet. Uncoupled,
    /// the power balance and accounting are recomputed with the operands
    /// of [`Self::step`], so the fields agree with its reward bit for bit.
    pub(crate) fn breakdown(
        &self,
        lane: usize,
        t: usize,
        coupled: Option<&CoupledLaneOutputs>,
    ) -> SlotBreakdown {
        let cell = self.slot_cell(lane, t);
        let p_bp = self.last_p_bp[lane];
        let effective_action = effective_action(p_bp);
        let bp_cost = if effective_action == BpAction::Idle {
            0.0
        } else {
            self.op_cost[lane]
        };
        let mut b = SlotBreakdown {
            slot: t,
            p_bs: KiloWatt::new(cell.p_bs),
            p_bp: KiloWatt::new(p_bp),
            p_wt: KiloWatt::new(cell.wt),
            p_pv: KiloWatt::new(cell.pv),
            srtp: DollarsPerKwh::new(cell.srtp),
            rtp: DollarsPerKwh::new(cell.rtp),
            bp_cost: Money::new(bp_cost),
            soc_kwh: self.soc[lane],
            effective_action,
            ..SlotBreakdown::default()
        };
        if let Some(o) = coupled {
            b.p_cs = KiloWatt::new(o.p_cs);
            b.p_grid = KiloWatt::new(o.p_grid);
            b.revenue = Money::new(o.revenue);
            b.grid_cost = Money::new(o.grid_cost);
            b.outage_penalty = Money::new(o.outage_penalty);
            b.unserved_kwh = o.unserved_kwh;
            b.reward = Money::new(o.reward);
            b.ev_charged = o.p_cs > 0.0;
            b.curtailed_kwh = o.curtailed_kwh;
            b.curtailment_penalty = Money::new(o.curtailment_penalty);
            b.spill_in = KiloWatt::new(o.spill_in);
            b.spill_out = KiloWatt::new(o.spill_out);
            return b;
        }
        let p_cs = if cell.willing {
            self.cs_rate[lane]
        } else {
            0.0
        };
        let p_demand = ((((cell.p_bs + p_cs) + p_bp) - cell.wt) - cell.pv).max(0.0);
        let (p_grid, unserved_kwh, penalty) = if cell.outage {
            (0.0, p_demand, p_demand * self.voll[lane])
        } else {
            (p_demand, 0.0, 0.0)
        };
        let revenue = p_cs * cell.srtp;
        let grid_cost = p_grid * cell.rtp;
        b.p_cs = KiloWatt::new(p_cs);
        b.p_grid = KiloWatt::new(p_grid);
        b.revenue = Money::new(revenue);
        b.grid_cost = Money::new(grid_cost);
        b.outage_penalty = Money::new(penalty);
        b.unserved_kwh = unserved_kwh;
        b.reward = Money::new(((revenue - grid_cost) - bp_cost) - penalty);
        b.ev_charged = cell.willing;
        b
    }

    /// Writes one lane's Eq. 24 core observation (`5 × window + 1` values,
    /// no conditioning block) for slot `t` into `out`, reading the
    /// precomputed group lanes: the five windows over slots
    /// `t - window + 1 ..= t`, clamped at the episode edges, then the SoC
    /// fraction. In steady state (full window available) each window is
    /// one contiguous `copy_from_slice`.
    pub(crate) fn write_obs(&self, lane: usize, t: usize, window: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), 5 * window + 1);
        let g = self.group_of[lane] as usize;
        let base = g * self.horizon;
        let lanes = [
            &self.obs_rtp,
            &self.obs_solar,
            &self.obs_wind,
            &self.obs_load,
            &self.obs_srtp,
        ];
        if t + 1 >= window && t < self.horizon {
            let start = base + t + 1 - window;
            for (i, lane_values) in lanes.iter().enumerate() {
                out[i * window..(i + 1) * window]
                    .copy_from_slice(&lane_values[start..start + window]);
            }
        } else {
            for (i, lane_values) in lanes.iter().enumerate() {
                for k in 0..window {
                    let idx = (t + k).saturating_sub(window - 1).min(self.horizon - 1);
                    out[i * window + k] = lane_values[base + idx];
                }
            }
        }
        out[5 * window] = self.soc[lane] / self.capacity[lane];
    }
}
