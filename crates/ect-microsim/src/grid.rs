//! Exact nearest-hub association through per-cell candidate lists.
//!
//! The association step runs once per UE per slot, so a full scan over hub
//! sites would put an `O(hubs)` factor on the hottest loop. Instead the
//! `[0, size_km]²` square is cut into a fine table of cells, and each cell
//! stores, once, every site that can be the nearest site of *some* point in
//! the cell. A query inside the square scans only its own cell's list.
//!
//! # The candidate table
//!
//! For a cell `C` with centre `m`, let `d_m` be the distance from `m` to its
//! nearest site and `h` half the cell diagonal. Every point `p ∈ C` has a
//! site within `U = d_m + h` (the centre's nearest, by the triangle
//! inequality), so the nearest site `s*` of `p` satisfies
//!
//! ```text
//! mindist(s*, C) ≤ d(p, s*) ≤ U
//! ```
//!
//! where `mindist` is the distance from a site to the cell rectangle. The
//! cell's candidates are therefore every site with `mindist(s, C) ≤ U`: a
//! superset of the nearest sites of all its points, exact ties included
//! (a tied site is exactly as far as `s*`). `U` is padded by a relative
//! plus absolute slack so floating-point rounding — of the distances, of
//! the cell edges and of the query's cell index — can only add candidates,
//! never drop one.
//!
//! Each row of cells keeps its lists end to end in one array of site ids,
//! ascending within each list, and each cell holds the `(start, len)` of
//! its own, so a query that keeps the first strictly smaller distance
//! returns the lowest index on exact ties. It uses the same `dist` as
//! [`nearest_brute_force`] and so returns the same index and the same
//! distance bits.
//!
//! The table is built top-down, not by brute force: a rectangle of cells
//! takes its candidates from its parent's list (the argument above holds
//! for any rectangle, and the parent's list already holds the nearest site
//! of the rectangle's centre), then splits along its longer side until
//! single cells remain, each appending its list to its row. Near the
//! leaves the lists are a handful of sites, so the build costs about a
//! distance test per site per level at the top and a few per cell at the
//! bottom.
//!
//! # Points outside the square
//!
//! `Region::generate` clamps roads and sites into the square, so road
//! points leave it only by a rounding error at an edge; flash-crowd
//! scatter can leave it, but it is associated once per engine, a bounded
//! sample per crowd. Such points run the brute-force scan itself, so the
//! table is the only index.
//!
//! Queries are pinned against the brute-force scan by proptests over
//! uniform scatters and over the clustered, duplicated sites of generated
//! regions.

use ect_data::spatial::Point;

fn dist(a: Point, b: Point) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Table cells per side per `√sites`: about sixteen cells per site keeps
/// the per-cell lists at a few sites on clustered geometry.
const TABLE_CELLS_PER_SQRT_SITE: f64 = 4.0;

/// Cap on table cells per side (the spans take `8 · side²` bytes).
const MAX_TABLE_SIDE: usize = 512;

/// Relative and absolute padding of a cell's bound `U`: many orders of
/// magnitude above the rounding of km-scale distances and cell edges.
const BOUND_REL_SLACK: f64 = 1e-9;
const BOUND_ABS_SLACK_KM: f64 = 1e-9;

/// Nearest-site index over hub sites: the candidate table for queries
/// inside the region square, a brute-force scan outside it.
#[derive(Debug, Clone)]
pub struct SpatialHash {
    size_km: f64,
    sites: Vec<Point>,
    /// Candidate-table cell side and cells per side.
    table_cell_km: f64,
    table_side: usize,
    /// The candidate table, one row of cells per entry.
    rows: Vec<TableRow>,
}

/// One row of the candidate table, its own small allocations (see the
/// crate docs on allocation size).
#[derive(Debug, Clone)]
struct TableRow {
    /// Per cell of the row: `(start, len)` of its list in `ids`.
    spans: Vec<(u32, u32)>,
    /// The row's candidate site ids, ascending within each cell's list.
    ids: Vec<u32>,
}

impl SpatialHash {
    /// Builds the candidate table for `sites` over the `[0, size_km]²`
    /// region. Sites outside the square are allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an empty site
    /// list, more than `u32::MAX` sites or a non-positive region size.
    pub fn new(sites: &[Point], size_km: f64) -> ect_types::Result<Self> {
        if sites.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "spatial hash needs at least one site".into(),
            ));
        }
        if u32::try_from(sites.len()).is_err() {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "spatial hash indexes sites as u32, got {}",
                sites.len()
            )));
        }
        if !size_km.is_finite() || size_km <= 0.0 {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "spatial hash region size must be positive, got {size_km}"
            )));
        }
        let table_side = (((sites.len() as f64).sqrt() * TABLE_CELLS_PER_SQRT_SITE).ceil()
            as usize)
            .clamp(1, MAX_TABLE_SIDE);
        let mut hash = Self {
            size_km,
            sites: sites.to_vec(),
            table_cell_km: size_km / table_side as f64,
            table_side,
            rows: Vec::new(),
        };
        hash.build_table();
        Ok(hash)
    }

    /// Number of sites in the hash.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    fn build_table(&mut self) {
        let side = self.table_side;
        let all = SiteList {
            ids: (0..self.sites.len() as u32).collect(),
            xs: self.sites.iter().map(|s| s.0).collect(),
            ys: self.sites.iter().map(|s| s.1).collect(),
        };
        let mut builder = TableBuilder {
            cell_km: self.table_cell_km,
            levels: vec![all],
            rows: vec![
                TableRow {
                    spans: vec![(0, 0); side],
                    ids: Vec::new(),
                };
                side
            ],
        };
        builder.split(0, 0..side, 0..side);
        self.rows = builder.rows;
    }

    fn inside(&self, p: Point) -> bool {
        (0.0..=self.size_km).contains(&p.0) && (0.0..=self.size_km).contains(&p.1)
    }

    /// The site nearest to `p` (lowest index on exact ties) and its
    /// distance — identical to a brute-force scan over all sites.
    #[must_use]
    pub fn nearest(&self, p: Point) -> (usize, f64) {
        let (idx, d, _) = self.nearest_tested(p);
        (idx, d)
    }

    /// [`Self::nearest`] plus the number of sites it distance-tested — the
    /// cost telemetry counts, so a degraded table shows.
    #[must_use]
    pub fn nearest_tested(&self, p: Point) -> (usize, f64, usize) {
        if !self.inside(p) {
            let (idx, d) = nearest_brute_force(&self.sites, p);
            return (idx, d, self.sites.len());
        }
        let side = self.table_side;
        let row = &self.rows[axis_cell(p.1, self.table_cell_km, side)];
        let (start, len) = row.spans[axis_cell(p.0, self.table_cell_km, side)];
        let ids = &row.ids[start as usize..(start + len) as usize];
        let mut best: (u32, f64) = (u32::MAX, f64::INFINITY);
        for &idx in ids {
            let d = dist(p, self.sites[idx as usize]);
            // Ids ascend, so keeping the first strict minimum is the
            // lowest-index tie-break.
            if d < best.1 {
                best = (idx, d);
            }
        }
        debug_assert!(best.0 != u32::MAX, "every cell lists a site");
        (best.0 as usize, best.1, ids.len())
    }
}

/// Cell index of one coordinate on a table of `n` cells of side `cell_km`,
/// clamped into `[0, n)`.
fn axis_cell(v: f64, cell_km: f64, n: usize) -> usize {
    if v <= 0.0 {
        return 0;
    }
    ((v / cell_km) as usize).min(n - 1)
}

/// Candidate sites with their coordinates alongside, so a filter reads
/// contiguous lanes.
#[derive(Default)]
struct SiteList {
    ids: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SiteList {
    /// Squared distance from `centre` to the nearest listed site.
    fn nearest_sq(&self, centre: Point) -> f64 {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(x, y)| (x - centre.0).powi(2) + (y - centre.1).powi(2))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Top-down candidate-table construction (see the module docs).
///
/// `levels[d]` holds the list of the rectangle at bisection depth `d` on
/// the current path (`levels[0]` every site); a rectangle overwrites its
/// depth's list, which its sibling no longer needs. Distances are compared
/// squared; the bound's slack covers the rounding that saves.
struct TableBuilder {
    cell_km: f64,
    levels: Vec<SiteList>,
    rows: Vec<TableRow>,
}

impl TableBuilder {
    /// Filters the list at `levels[depth]` down to the candidates of the
    /// cell rectangle `cols × rows` into `levels[depth + 1]`, then records
    /// it (one cell) or bisects the longer side.
    fn split(&mut self, depth: usize, cols: std::ops::Range<usize>, rows: std::ops::Range<usize>) {
        let lo = (
            cols.start as f64 * self.cell_km,
            rows.start as f64 * self.cell_km,
        );
        let hi = (
            cols.end as f64 * self.cell_km,
            rows.end as f64 * self.cell_km,
        );
        if self.levels.len() == depth + 1 {
            self.levels.push(SiteList::default());
        }
        let (done, rest) = self.levels.split_at_mut(depth + 1);
        let (parent, own) = (&done[depth], &mut rest[0]);
        let centre = (0.5 * (lo.0 + hi.0), 0.5 * (lo.1 + hi.1));
        let bound = (parent.nearest_sq(centre).sqrt() + 0.5 * dist(lo, hi))
            * (1.0 + BOUND_REL_SLACK)
            + BOUND_ABS_SLACK_KM;
        let bound_sq = bound * bound;
        // Branch-free compaction: every site is written at `top`, which
        // advances only past the kept ones. The pass/fail branch of a plain
        // filter mispredicts often enough to slow the whole build by about
        // half on clustered metro geometry.
        let n = parent.ids.len();
        own.ids.resize(n, 0);
        own.xs.resize(n, 0.0);
        own.ys.resize(n, 0.0);
        let mut top = 0;
        for k in 0..n {
            let (x, y) = (parent.xs[k], parent.ys[k]);
            let dx = (lo.0 - x).max(x - hi.0).max(0.0);
            let dy = (lo.1 - y).max(y - hi.1).max(0.0);
            own.ids[top] = parent.ids[k];
            own.xs[top] = x;
            own.ys[top] = y;
            top += usize::from(dx * dx + dy * dy <= bound_sq);
        }
        own.ids.truncate(top);
        own.xs.truncate(top);
        own.ys.truncate(top);
        if cols.len() == 1 && rows.len() == 1 {
            let row = &mut self.rows[rows.start];
            row.spans[cols.start] = (row.ids.len() as u32, top as u32);
            row.ids.extend_from_slice(&own.ids);
        } else if cols.len() >= rows.len() {
            let mid = cols.start + cols.len() / 2;
            self.split(depth + 1, cols.start..mid, rows.clone());
            self.split(depth + 1, mid..cols.end, rows);
        } else {
            let mid = rows.start + rows.len() / 2;
            self.split(depth + 1, cols.clone(), rows.start..mid);
            self.split(depth + 1, cols, mid..rows.end);
        }
    }
}

/// Brute-force nearest site (lowest index on ties) — the reference the
/// hash must match, public for the correctness proptests.
#[must_use]
pub fn nearest_brute_force(sites: &[Point], p: Point) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (idx, &site) in sites.iter().enumerate() {
        let d = dist(p, site);
        if d < best.1 {
            best = (idx, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::spatial::{Region, RegionConfig};
    use ect_types::rng::EctRng;
    use proptest::prelude::*;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(SpatialHash::new(&[], 100.0).is_err());
        assert!(SpatialHash::new(&[(1.0, 1.0)], 0.0).is_err());
    }

    #[test]
    fn single_site_is_always_nearest() {
        let hash = SpatialHash::new(&[(40.0, 60.0)], 100.0).unwrap();
        let (idx, d) = hash.nearest((0.0, 0.0));
        assert_eq!(idx, 0);
        assert!((d - (40.0f64.powi(2) + 60.0f64.powi(2)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_a_seeded_scatter() {
        let mut rng = EctRng::seed_from(7);
        let sites: Vec<Point> = (0..50)
            .map(|_| (rng.uniform_in(0.0, 200.0), rng.uniform_in(0.0, 200.0)))
            .collect();
        let hash = SpatialHash::new(&sites, 200.0).unwrap();
        for _ in 0..500 {
            let p = (rng.uniform_in(-10.0, 210.0), rng.uniform_in(-10.0, 210.0));
            assert_eq!(hash.nearest(p), nearest_brute_force(&sites, p));
        }
    }

    #[test]
    fn every_cell_lists_a_site_and_inside_queries_test_only_their_cell() {
        let mut rng = EctRng::seed_from(3);
        let sites: Vec<Point> = (0..200)
            .map(|_| (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)))
            .collect();
        let hash = SpatialHash::new(&sites, 100.0).unwrap();
        assert!(hash
            .rows
            .iter()
            .flat_map(|row| &row.spans)
            .all(|&(_, len)| len > 0));
        let listed: usize = hash.rows.iter().map(|row| row.ids.len()).sum();
        let lists = listed as f64 / (hash.table_side as f64).powi(2);
        assert!(
            lists < 10.0,
            "{lists} candidates per cell on a uniform scatter"
        );
        let (_, _, tested) = hash.nearest_tested((50.0, 50.0));
        assert!(tested < sites.len() / 4, "{tested} sites tested");
    }

    /// The sites of a generated region (cities and highways) strided as the
    /// microsim sites hubs, with every `dup_every`-th site repeated at the
    /// end of the list so exact ties must resolve to the lower index.
    fn clustered_sites(seed: u64, base_stations: usize, hubs: usize, dup_every: usize) -> Region {
        let mut region = Region::generate(
            &RegionConfig {
                size_km: 100.0,
                num_highways: 4,
                num_cities: 3,
                streets_per_city: 4,
                city_radius_km: 6.0,
                num_base_stations: base_stations,
                ..RegionConfig::default()
            },
            &mut EctRng::seed_from(seed),
        )
        .unwrap();
        let stride = base_stations / hubs;
        let mut sites: Vec<Point> = (0..hubs)
            .map(|h| region.base_stations[h * stride])
            .collect();
        let dups: Vec<Point> = sites.iter().step_by(dup_every).copied().collect();
        sites.extend(dups);
        region.base_stations = sites;
        region
    }

    proptest! {
        /// The satellite pin: hash association equals brute-force
        /// nearest-hub on random scatters, queries included off-grid.
        #[test]
        fn hash_matches_brute_force(
            seed in 0u64..1_000,
            num_sites in 1usize..40,
        ) {
            let mut rng = EctRng::seed_from(seed);
            let sites: Vec<Point> = (0..num_sites)
                .map(|_| (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)))
                .collect();
            let hash = SpatialHash::new(&sites, 100.0).unwrap();
            for _ in 0..32 {
                let p = (rng.uniform_in(-20.0, 120.0), rng.uniform_in(-20.0, 120.0));
                prop_assert_eq!(hash.nearest(p), nearest_brute_force(&sites, p));
            }
        }

        /// Clustered geometry: generated cities and highways, duplicated
        /// sites, and queries on roads, on table-cell edges and corners,
        /// and outside the square.
        #[test]
        fn hash_matches_brute_force_on_clustered_sites(
            seed in 0u64..1_000,
            hubs in 2usize..300,
            dup_every in 1usize..8,
        ) {
            let region = clustered_sites(seed, 600, hubs, dup_every);
            let sites = &region.base_stations;
            let hash = SpatialHash::new(sites, region.size_km).unwrap();
            let mut rng = EctRng::seed_from(seed ^ 0x5EED);
            let edge = hash.table_cell_km;
            let side = hash.table_side;
            for _ in 0..48 {
                let road = &region.roads[rng.below(region.roads.len())];
                let on_road = road.point_at(rng.uniform());
                let (i, j) = (rng.below(side + 1), rng.below(side + 1));
                let corner = (i as f64 * edge, j as f64 * edge);
                let on_edge = (corner.0, rng.uniform_in(0.0, region.size_km));
                let outside = (rng.uniform_in(-30.0, 130.0), rng.uniform_in(100.0, 140.0));
                for p in [on_road, corner, on_edge, (on_edge.1, on_edge.0), outside] {
                    prop_assert_eq!(hash.nearest(p), nearest_brute_force(sites, p), "at {:?}", p);
                }
            }
        }
    }
}
