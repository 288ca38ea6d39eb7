//! The one slot kernel: precomputed slot cells plus per-lane battery state.
//!
//! [`SlotLanes`] precomputes everything about a fleet slot that does not
//! depend on the battery action — loads, renewables, prices, revenue and
//! outage flags — once per *group* of lanes that share one
//! `(HubConfig, HubSeries)` (a 100k-lane fleet replicated from a 12-hub
//! world holds 12 groups, not 100k copies). The cells are slot-major: one
//! slot's cells are one contiguous row, which the step pass reads front to
//! back. What remains per lane is the live SoC — the only copy of each
//! hub's state of charge — and the battery power of the last step. The
//! five normalised Eq. 24 input lanes of each group are built on the first
//! observation, so a fleet that only steps (the rule-based baselines, the
//! metro sweep) never builds them.
//!
//! The slot arithmetic exists once, as two pure functions:
//! [`battery_step`] (the Eqs. 3–5 and 8 recurrence) and [`balance`] (the
//! Eq. 7 power balance and Eq. 12 profit). [`SlotLanes::step`] runs them
//! over every lane of a slot in one pass, branch-free in the arithmetic:
//! both battery moves are evaluated and the action selects one. The coupled
//! path ([`SlotLanes::coupled_inputs`], which swaps the balance for the
//! [`crate::coupling`] exchange) and the audit trail
//! ([`SlotLanes::breakdown`]) call the same functions. The per-slot
//! [`SlotBreakdown`] is never stored: it is assembled on demand from the
//! slot cell, the live SoC and the recorded battery power.
//!
//! The kernel reproduces the paper's equations operand for operand (same
//! order, same unit-type arithmetic unwrapped to plain `f64`), so its bits
//! equal the readable one-hub reference kept under `#[cfg(test)]`
//! (`env::oracle::compute_slot` / `env::oracle::write_observation`); the
//! `vec_env` proptests and `tests/engine_golden.rs` pin this.

use crate::battery::BpAction;
use crate::coupling::{CoupledLaneInputs, CoupledLaneOutputs};
use crate::env::{SlotBreakdown, IRRADIANCE_SCALE, PRICE_SCALE, WIND_SCALE};
use crate::hub::HubConfig;
use crate::vec_env::HubSeries;
use ect_types::units::{DollarsPerKwh, KiloWatt, Money};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// One `(group, slot)` cell's action-independent values (Eqs. 1–2, 7's
/// renewables, 11), the fields the step pass reads first in the record.
/// During an outage the charging station is shed (the ride-through doctrine
/// of `crate::blackout`): `willing` is `false` and `P_CS` zero.
#[derive(Debug, Clone, Copy, Default)]
struct SlotCell {
    /// The first sum of Eq. 7, `P_BS + P_CS`, kW.
    load: f64,
    wt: f64,
    pv: f64,
    rtp: f64,
    /// The Eq. 11 revenue `P_CS · SRTP`, $.
    revenue: f64,
    p_bs: f64,
    srtp: f64,
    outage: bool,
    willing: bool,
}

/// One group's battery constants, unwrapped through the same unit-type
/// expressions `BatteryPoint::apply` evaluates, plus the per-hub rates the
/// balance reads and the base price the SRTP window is normalised by.
/// Lanes of a group share one config, so one record serves them all.
#[derive(Debug, Clone, Copy)]
struct BatteryConsts {
    soc_min: f64,
    soc_max: f64,
    /// Largest SoC gain of one slot, `η_ch · R_ch · 1 h`, kWh.
    full_gain: f64,
    eta_ch: f64,
    /// Largest SoC draw of one slot, `R_dch · 1 h`, kWh.
    full_draw: f64,
    eta_dch: f64,
    op_cost: f64,
    /// Value of lost load, $/kWh.
    voll: f64,
    capacity: f64,
    /// Charging-station rate `R_CS`, kW.
    cs_rate: f64,
    base_price: f64,
}

impl BatteryConsts {
    fn new(config: &HubConfig) -> Self {
        let cfg = &config.battery;
        Self {
            soc_min: cfg.soc_min_kwh().as_f64(),
            soc_max: cfg.soc_max_kwh().as_f64(),
            full_gain: cfg.charge_efficiency * (cfg.charge_rate_kw * 1.0),
            eta_ch: cfg.charge_efficiency.as_f64(),
            full_draw: cfg.discharge_rate_kw * 1.0,
            eta_dch: cfg.discharge_efficiency.as_f64(),
            op_cost: cfg.op_cost_per_slot,
            voll: config.outage_voll.as_f64(),
            capacity: cfg.capacity_kwh,
            cs_rate: config.charging_station.rate_kw,
            base_price: config.tariff.base_price.as_f64(),
        }
    }
}

/// `a.min(b)` for the finite operands of the battery bounds, as one
/// compare-and-select: the two differ only on NaN and on `±0.0` ties, and a
/// bound at or below `1e-9` is discarded anyway.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The battery recurrence (Eqs. 3–5 and 8) of one lane-slot: `(p_bp, soc',
/// active)`, with the bound-respecting semantics of `BatteryPoint::apply`
/// bit for bit (same `1e-9` epsilon, same min/divide order). A scripted
/// outage degrades `Charge` to `Idle`: grid-side charging has no source
/// while the grid is out. Branch-free: both moves are computed and the
/// action, the outage and the clamps select one; a clamped or idle slot
/// keeps its SoC and draws `0.0`.
#[inline(always)]
fn battery_step(b: &BatteryConsts, soc: f64, action: BpAction, outage: bool) -> (f64, f64, bool) {
    const EPS: f64 = 1e-9;
    let gain = min(b.soc_max - soc, b.full_gain);
    let drawn = min(soc - b.soc_min, b.full_draw);
    let charge = (action == BpAction::Charge) & !outage & (gain > EPS);
    let discharge = (action == BpAction::Discharge) & (drawn > EPS);
    let (charged_p, charged_soc) = (gain / b.eta_ch, soc + gain);
    let (drawn_p, drawn_soc) = (-(b.eta_dch * drawn), soc - drawn);
    let p_bp = if charge {
        charged_p
    } else if discharge {
        drawn_p
    } else {
        0.0
    };
    let next = if charge {
        charged_soc
    } else if discharge {
        drawn_soc
    } else {
        soc
    };
    (p_bp, next, charge | discharge)
}

/// The Eq. 7 power balance and Eq. 12 accounting of one uncoupled
/// lane-slot; an outage turns the grid draw into unserved energy at the
/// value of lost load.
#[derive(Debug, Clone, Copy)]
struct Balance {
    p_grid: f64,
    unserved_kwh: f64,
    grid_cost: f64,
    penalty: f64,
    reward: f64,
}

#[inline(always)]
fn balance(cell: &SlotCell, b: &BatteryConsts, p_bp: f64, bp_cost: f64) -> Balance {
    let p_demand = (((cell.load + p_bp) - cell.wt) - cell.pv).max(0.0);
    let p_grid = if cell.outage { 0.0 } else { p_demand };
    let unserved_kwh = if cell.outage { p_demand } else { 0.0 };
    let penalty = if cell.outage { p_demand * b.voll } else { 0.0 };
    let grid_cost = p_grid * cell.rtp;
    Balance {
        p_grid,
        unserved_kwh,
        grid_cost,
        penalty,
        reward: ((cell.revenue - grid_cost) - bp_cost) - penalty,
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

/// The slot kernel of a fleet: per-group slot cells and battery constants,
/// plus per-lane live state. Built once by [`crate::vec_env::FleetEnv::new`].
#[derive(Debug, Clone)]
pub(crate) struct SlotLanes {
    /// Lane → group index.
    group_of: Vec<u32>,
    /// Per-(group, slot) cells, slot-major: slot `t`, group `g` lives at
    /// `t * groups + g`.
    cells: Vec<SlotCell>,
    /// Per-group battery constants.
    batteries: Vec<BatteryConsts>,
    /// One lane of each group, whose series feed `obs`.
    reps: Vec<usize>,
    horizon: usize,
    /// Per-(group, slot) Eq. 24 inputs, normalised and group-major (RTP,
    /// solar, wind, load rate, SRTP), built on the first observation so a
    /// fleet that is never observed never pays for them.
    obs: OnceLock<[Vec<f64>; 5]>,
    // Per-lane live state: the state of charge, kWh, and the signed
    // grid-side battery power of the last applied action, kW (its sign is
    // the effective action, see `effective_action`).
    soc: Vec<f64>,
    last_p_bp: Vec<f64>,
}

impl SlotLanes {
    /// Builds the slot lanes of the given fleet lanes, every battery at
    /// SoC 0 (the caller seeds it). Groups lanes by series identity (`Arc`
    /// data pointers) plus config equality, then precomputes every
    /// action-independent slot quantity in one pass over each group's
    /// series.
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
        let mut cells = vec![SlotCell::default(); groups * horizon];
        for (g, &rep) in reps.iter().enumerate() {
            let (config, s) = (&configs[rep], &series[rep]);
            let levels = s.discounts.as_slice();
            let slots = (s.traffic.iter().zip(s.weather.iter()))
                .zip(s.strata.iter().zip(s.outages.iter()))
                .zip(levels.iter().zip(s.rtp.iter()));
            for (cell, (((traffic, weather), (stratum, &outage)), (&level, rtp))) in
                cells[g..].iter_mut().step_by(groups).zip(slots)
            {
                let willing = !outage && stratum.outcome(level > 0.0);
                let p_bs = config.base_station.power(traffic.load_rate).as_f64();
                let p_cs = config.charging_station.power(willing).as_f64();
                let srtp = config.tariff.price_with_discount(level).as_f64();
                *cell = SlotCell {
                    p_bs,
                    load: p_bs + p_cs,
                    revenue: p_cs * srtp,
                    wt: config.plant.wt_power(weather).as_f64(),
                    pv: config.plant.pv_power(weather).as_f64(),
                    rtp: rtp.as_f64(),
                    srtp,
                    willing,
                    outage,
                };
            }
        }

        Self {
            group_of,
            cells,
            batteries: reps
                .iter()
                .map(|&rep| BatteryConsts::new(&configs[rep]))
                .collect(),
            reps,
            horizon,
            obs: OnceLock::new(),
            soc: vec![0.0; n],
            last_p_bp: vec![0.0; n],
        }
    }

    /// Number of deduplicated `(config, series)` groups.
    pub(crate) fn group_count(&self) -> usize {
        self.batteries.len()
    }

    /// Current SoC of one lane, kWh.
    pub(crate) fn soc(&self, lane: usize) -> f64 {
        self.soc[lane]
    }

    /// Seeds one lane's SoC, kWh (already clamped into its bounds).
    pub(crate) fn set_soc(&mut self, lane: usize, soc_kwh: f64) {
        self.soc[lane] = soc_kwh;
    }

    /// Battery constants of one lane's group.
    fn battery(&self, lane: usize) -> &BatteryConsts {
        &self.batteries[self.group_of[lane] as usize]
    }

    /// Action-independent values of one lane's `(group, slot)` cell.
    fn slot_cell(&self, lane: usize, t: usize) -> &SlotCell {
        &self.cells[t * self.batteries.len() + self.group_of[lane] as usize]
    }

    /// Advances every uncoupled lane one slot and writes its reward: one
    /// pass over all lanes, each [`battery_step`] then [`balance`].
    pub(crate) fn step(&mut self, t: usize, actions: &[BpAction], rewards: &mut [f64]) {
        let groups = self.batteries.len();
        let (row, batteries) = (&self.cells[t * groups..(t + 1) * groups], &self.batteries);
        let lanes = (self.group_of.iter().zip(actions))
            .zip(self.soc.iter_mut().zip(self.last_p_bp.iter_mut()))
            .zip(rewards.iter_mut());
        for (((&g, &action), (soc, last_p_bp)), reward) in lanes {
            let (cell, b) = (&row[g as usize], &batteries[g as usize]);
            let (p_bp, next, active) = battery_step(b, *soc, action, cell.outage);
            *soc = next;
            *last_p_bp = p_bp;
            *reward = balance(cell, b, p_bp, if active { b.op_cost } else { 0.0 }).reward;
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
        let (cell, b) = (*self.slot_cell(lane, t), *self.battery(lane));
        let (p_bp, next, active) = battery_step(&b, self.soc[lane], action, cell.outage);
        self.soc[lane] = next;
        self.last_p_bp[lane] = p_bp;
        CoupledLaneInputs {
            p_bs: cell.p_bs,
            p_bp,
            p_wt: cell.wt,
            p_pv: cell.pv,
            rtp: cell.rtp,
            srtp: cell.srtp,
            op_cost: if active { b.op_cost } else { 0.0 },
            voll: b.voll,
            outage: cell.outage,
            ev_capacity_kw: if cell.outage { 0.0 } else { b.cs_rate },
            ev_demand_kw: if cell.willing {
                b.cs_rate * demand_scale
            } else {
                0.0
            },
        }
    }

    /// SoC of one lane as a fraction of capacity.
    pub(crate) fn soc_fraction(&self, lane: usize) -> f64 {
        self.soc[lane] / self.battery(lane).capacity
    }

    /// The audit trail of slot `t`, which lane `lane` has just stepped:
    /// assembled from the slot cell, the recorded battery power and the
    /// live SoC, plus the exchange outputs on a coupled fleet. Uncoupled,
    /// the balance is [`balance`] again, so the fields agree with the
    /// step's reward bit for bit.
    pub(crate) fn breakdown(
        &self,
        lane: usize,
        t: usize,
        coupled: Option<&CoupledLaneOutputs>,
    ) -> SlotBreakdown {
        let (cell, b) = (self.slot_cell(lane, t), self.battery(lane));
        let p_bp = self.last_p_bp[lane];
        let effective_action = effective_action(p_bp);
        let bp_cost = if effective_action == BpAction::Idle {
            0.0
        } else {
            b.op_cost
        };
        let mut out = SlotBreakdown {
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
            out.p_cs = KiloWatt::new(o.p_cs);
            out.p_grid = KiloWatt::new(o.p_grid);
            out.revenue = Money::new(o.revenue);
            out.grid_cost = Money::new(o.grid_cost);
            out.outage_penalty = Money::new(o.outage_penalty);
            out.unserved_kwh = o.unserved_kwh;
            out.reward = Money::new(o.reward);
            out.ev_charged = o.p_cs > 0.0;
            out.curtailed_kwh = o.curtailed_kwh;
            out.curtailment_penalty = Money::new(o.curtailment_penalty);
            out.spill_in = KiloWatt::new(o.spill_in);
            out.spill_out = KiloWatt::new(o.spill_out);
            return out;
        }
        let balance = balance(cell, b, p_bp, bp_cost);
        out.p_cs = KiloWatt::new(if cell.willing { b.cs_rate } else { 0.0 });
        out.p_grid = KiloWatt::new(balance.p_grid);
        out.revenue = Money::new(cell.revenue);
        out.grid_cost = Money::new(balance.grid_cost);
        out.outage_penalty = Money::new(balance.penalty);
        out.unserved_kwh = balance.unserved_kwh;
        out.reward = Money::new(balance.reward);
        out.ev_charged = cell.willing;
        out
    }

    /// Writes one lane's Eq. 24 core observation (`5 × window + 1` values,
    /// no conditioning block) for slot `t` into `out`: the five windows over
    /// slots `t - window + 1 ..= t`, clamped at the episode edges, then the
    /// SoC fraction. `series` are the fleet's lanes, whose groups' series
    /// fill the normalised lanes on the first call. In steady state (full
    /// window available) each window is one contiguous `copy_from_slice`.
    pub(crate) fn write_obs(
        &self,
        lane: usize,
        t: usize,
        window: usize,
        series: &[HubSeries],
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), 5 * window + 1);
        let obs = self.obs.get_or_init(|| {
            let groups = self.reps.len();
            let mut obs: [Vec<f64>; 5] = Default::default();
            let [rtp, solar, wind, load, srtp] = &mut obs;
            for (g, (&rep, b)) in self.reps.iter().zip(&self.batteries).enumerate() {
                let s = &series[rep];
                rtp.extend(s.rtp.iter().map(|p| p.as_f64() / PRICE_SCALE));
                solar.extend(
                    s.weather
                        .iter()
                        .map(|w| w.solar_irradiance / IRRADIANCE_SCALE),
                );
                wind.extend(s.weather.iter().map(|w| w.wind_speed / WIND_SCALE));
                load.extend(s.traffic.iter().map(|x| x.load_rate.as_f64()));
                let cells = self.cells[g..].iter().step_by(groups);
                srtp.extend(cells.map(|c| c.srtp / b.base_price));
            }
            obs
        });
        let base = self.group_of[lane] as usize * self.horizon;
        if t + 1 >= window && t < self.horizon {
            let start = base + t + 1 - window;
            for (i, lane_values) in obs.iter().enumerate() {
                out[i * window..(i + 1) * window]
                    .copy_from_slice(&lane_values[start..start + window]);
            }
        } else {
            for (i, lane_values) in obs.iter().enumerate() {
                for k in 0..window {
                    let idx = (t + k).saturating_sub(window - 1).min(self.horizon - 1);
                    out[i * window + k] = lane_values[base + idx];
                }
            }
        }
        out[5 * window] = self.soc_fraction(lane);
    }
}
