//! Exact nearest-hub association through per-road-segment candidate lists.
//!
//! The association step runs once per UE per slot, so a full scan over hub
//! sites would put an `O(hubs)` factor on the hottest loop. UEs never leave
//! their road segment, so the index is built over the roads themselves:
//! each segment is cut into bins of [`BIN_KM`] along its parameter
//! `t ∈ [0, 1]`, and each bin stores, once, every site that can be the
//! nearest site of *some* point the segment yields in that bin. A query
//! `(segment, t)` scans only its own bin's list.
//!
//! # The candidate lists
//!
//! Bin `k` of a segment cut into `n` bins covers `t ∈ [k/n, (k+1)/n]`. The
//! segment's points in that range lie in the bounding box `B` of its two
//! end points (the point `a + t·d` is monotone in `t`, in floating point
//! too). A query's bin index `⌊t·n⌋` and the bin edges `k/n` are rounded,
//! so a `t` within an ulp or two of an edge may land in the neighbouring
//! bin; its point then lies outside that bin's box by about
//! `1e-16 × |d|`, some 1e-14 km on metro roads, which the bound's slack
//! below covers many times over.
//!
//! Let `m` be the centre of `B`, `d_m` the distance from `m` to its nearest
//! site and `h` half the diagonal of `B`. Every point `p ∈ B` has a site
//! within `U = d_m + h` (the centre's nearest, by the triangle inequality),
//! so the nearest site `s*` of `p` satisfies
//!
//! ```text
//! mindist(s*, B) ≤ d(p, s*) ≤ U
//! ```
//!
//! where `mindist` is the distance from a site to the box. The bin's
//! candidates are therefore every site with `mindist(s, B) ≤ U`: a superset
//! of the nearest sites of all its points, exact ties included (a tied site
//! is exactly as far as `s*`). `U` is padded by a relative plus absolute
//! slack so floating-point rounding of the distances can only add
//! candidates, never drop one.
//!
//! Site ids ascend within each list, so a query that keeps the first
//! strictly smaller distance returns the lowest index on exact ties. It
//! computes the point as [`RoadSegment::point_at`] does and uses the same
//! `dist` as [`nearest_brute_force`], so it returns the same index and the
//! same distance bits.
//!
//! The lists are built top-down: a run of bins filters its parent run's
//! list (the argument above holds for any run, whose box lies inside its
//! parent's, and the parent's list holds the nearest site of the run's
//! centre), then splits in two until single bins remain. Points off the
//! roads (flash-crowd scatter, a bounded sample per crowd, associated once
//! per engine) run [`nearest_brute_force`] itself.

use ect_data::spatial::{Point, RoadSegment};

fn dist(a: Point, b: Point) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Bin length along a segment, km. A bin's box is at most this long
/// diagonally, so its bound `U` exceeds its centre's nearest-site distance
/// by at most `BIN_KM / 2`; a quarter kilometre keeps the lists at a few
/// sites on the metro geometry, where finer bins measured no faster.
pub const BIN_KM: f64 = 0.25;

/// Cap on bins per segment, so each segment's list starts stay a small
/// allocation (see the crate docs on allocation size); a segment longer
/// than `MAX_SEGMENT_BINS · BIN_KM` gets wider bins.
const MAX_SEGMENT_BINS: usize = 4096;

/// Cap on sites, so every segment's id count fits a `u32` list start.
const MAX_SITES: usize = u32::MAX as usize / MAX_SEGMENT_BINS;

/// Relative and absolute padding of a bin's bound `U`: many orders of
/// magnitude above the rounding of km-scale distances. They also cover a
/// query point up to `δ` outside its bin's box (a `t` that rounding put in
/// the neighbouring bin, see the module docs): its nearest site is within
/// `U + 2δ` of the box, and `δ ≈ 1e-14 km` is five orders of magnitude
/// below the 1e-9 km absolute slack, so bins need no widening of their
/// own.
const BOUND_REL_SLACK: f64 = 1e-9;
const BOUND_ABS_SLACK_KM: f64 = 1e-9;

/// Nearest-site index over hub sites for points on road segments.
#[derive(Debug, Clone)]
pub(crate) struct SegmentIndex {
    sites: Vec<Point>,
    segments: Vec<SegmentBins>,
}

/// One segment's geometry and candidate lists, its own small allocations
/// (see the crate docs on allocation size).
#[derive(Debug, Clone)]
struct SegmentBins {
    /// Start point and `end − start`, as [`RoadSegment::point_at`] uses.
    a: Point,
    d: Point,
    /// Bin count, as the query's scale from `t` to a bin.
    bins: f64,
    /// Bin `k` lists `ids[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// The candidate site ids, ascending within each bin's list.
    ids: Vec<u32>,
}

impl SegmentBins {
    fn point_at(&self, t: f64) -> Point {
        (self.a.0 + t * self.d.0, self.a.1 + t * self.d.1)
    }
}

impl SegmentIndex {
    /// Builds the candidate lists of every segment of `roads` over `sites`.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for no sites or
    /// more than about a million.
    pub fn new(sites: &[Point], roads: &[RoadSegment]) -> ect_types::Result<Self> {
        if !(1..=MAX_SITES).contains(&sites.len()) {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "segment index takes 1 to {MAX_SITES} sites, got {}",
                sites.len()
            )));
        }
        let mut builder = BinBuilder {
            levels: vec![SiteList {
                ids: (0..sites.len() as u32).collect(),
                xs: sites.iter().map(|s| s.0).collect(),
                ys: sites.iter().map(|s| s.1).collect(),
            }],
        };
        Ok(Self {
            sites: sites.to_vec(),
            segments: roads.iter().map(|road| builder.segment(road)).collect(),
        })
    }

    /// The indexed sites.
    #[must_use]
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// The site nearest to the point at `t ∈ [0, 1]` along segment `seg`
    /// (lowest index on exact ties), its distance and the number of sites
    /// distance-tested — the cost telemetry counts, so a degraded index
    /// shows. Index and distance are identical to [`nearest_brute_force`]
    /// at the point [`RoadSegment::point_at`] yields.
    ///
    /// # Panics
    ///
    /// Panics when `seg` is out of range.
    #[must_use]
    pub fn nearest(&self, seg: u32, t: f64) -> (usize, f64, usize) {
        let segment = &self.segments[seg as usize];
        let p = segment.point_at(t);
        let bin = ((t * segment.bins) as usize).min(segment.starts.len() - 2);
        let ids = &segment.ids[segment.starts[bin] as usize..segment.starts[bin + 1] as usize];
        let mut best: (u32, f64) = (u32::MAX, f64::INFINITY);
        for &idx in ids {
            let d = dist(p, self.sites[idx as usize]);
            // Ids ascend, so keeping the first strict minimum is the
            // lowest-index tie-break.
            if d < best.1 {
                best = (idx, d);
            }
        }
        debug_assert!(best.0 != u32::MAX, "every bin lists a site");
        (best.0 as usize, best.1, ids.len())
    }
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

/// Top-down candidate-list construction (see the module docs).
///
/// `levels[d]` holds the list of the bin run at bisection depth `d` on the
/// current path (`levels[0]` every site); a run overwrites its depth's
/// list, which its sibling no longer needs. Distances are compared
/// squared; the bound's slack covers the rounding that saves.
struct BinBuilder {
    levels: Vec<SiteList>,
}

impl BinBuilder {
    fn segment(&mut self, road: &RoadSegment) -> SegmentBins {
        let bins = ((road.length() / BIN_KM).ceil() as usize).clamp(1, MAX_SEGMENT_BINS);
        let mut segment = SegmentBins {
            a: road.a,
            d: (road.b.0 - road.a.0, road.b.1 - road.a.1),
            bins: bins as f64,
            starts: Vec::with_capacity(bins + 1),
            ids: Vec::new(),
        };
        segment.starts.push(0);
        self.split(0, &mut segment, 0..bins);
        segment
    }

    /// Filters the list at `levels[depth]` down to the candidates of the
    /// bin run `bins` of `segment` into `levels[depth + 1]`, then records
    /// it (one bin) or bisects the run.
    fn split(&mut self, depth: usize, segment: &mut SegmentBins, bins: std::ops::Range<usize>) {
        let t0 = bins.start as f64 / segment.bins;
        let t1 = bins.end as f64 / segment.bins;
        let (p0, p1) = (segment.point_at(t0), segment.point_at(t1));
        let lo = (p0.0.min(p1.0), p0.1.min(p1.1));
        let hi = (p0.0.max(p1.0), p0.1.max(p1.1));
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
        if bins.len() == 1 {
            segment.ids.extend_from_slice(&own.ids);
            segment.starts.push(segment.ids.len() as u32);
        } else {
            let mid = bins.start + bins.len() / 2;
            self.split(depth + 1, segment, bins.start..mid);
            self.split(depth + 1, segment, mid..bins.end);
        }
    }
}

/// Brute-force nearest site (lowest index on ties) — the reference the
/// index must match, and the association of off-road points.
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
    use ect_data::spatial::{Region, RegionConfig, RoadKind};
    use ect_types::rng::EctRng;
    use proptest::prelude::*;

    fn road(a: Point, b: Point) -> RoadSegment {
        RoadSegment {
            a,
            b,
            kind: RoadKind::Urban,
        }
    }

    /// Asserts the index answer at `(seg, t)` equals the brute-force scan
    /// at the point `RoadSegment::point_at` yields there.
    fn check(index: &SegmentIndex, roads: &[RoadSegment], seg: usize, t: f64) {
        let p = roads[seg].point_at(t);
        assert_eq!(index.segments[seg].point_at(t), p, "point bits at t = {t}");
        let (idx, d, _) = index.nearest(seg as u32, t);
        assert_eq!(
            (idx, d),
            nearest_brute_force(&index.sites, p),
            "segment {seg} at t = {t:e}"
        );
    }

    /// `t` at every bin edge `k/n` of a segment, the floats either side of
    /// each, and both segment ends.
    fn edge_ts(index: &SegmentIndex, seg: usize) -> Vec<f64> {
        let n = index.segments[seg].bins;
        let mut ts = vec![0.0, 1.0, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0];
        for k in 1..n as usize {
            let edge = k as f64 / n;
            ts.extend([
                edge,
                f64::from_bits(edge.to_bits() - 1),
                f64::from_bits(edge.to_bits() + 1),
            ]);
        }
        ts
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(SegmentIndex::new(&[], &[road((0.0, 0.0), (1.0, 1.0))]).is_err());
    }

    #[test]
    fn single_site_is_always_nearest() {
        let roads = [road((0.0, 0.0), (10.0, 0.0))];
        let index = SegmentIndex::new(&[(40.0, 60.0)], &roads).unwrap();
        let (idx, d, tested) = index.nearest(0, 0.0);
        assert_eq!((idx, tested), (0, 1));
        assert!((d - (40.0f64.powi(2) + 60.0f64.powi(2)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn every_bin_lists_a_site_and_queries_test_only_their_bin() {
        let mut rng = EctRng::seed_from(3);
        let sites: Vec<Point> = (0..200)
            .map(|_| (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)))
            .collect();
        let roads = [
            road((0.0, 50.0), (100.0, 50.0)),
            road((10.0, 0.0), (90.0, 100.0)),
            road((30.0, 30.0), (30.1, 30.05)),
        ];
        let index = SegmentIndex::new(&sites, &roads).unwrap();
        for (segment, road) in index.segments.iter().zip(&roads) {
            let bins = (road.length() / BIN_KM).ceil().max(1.0);
            assert_eq!(segment.starts.len() - 1, bins as usize);
            assert!(segment.starts.windows(2).all(|w| w[0] < w[1]));
            let lists = segment.ids.len() as f64 / bins;
            assert!(
                lists < 4.0,
                "{lists} candidates per bin on a uniform scatter"
            );
        }
        let (_, _, tested) = index.nearest(0, 0.5);
        let bin = &index.segments[0];
        let k = (0.5 * bin.bins) as usize;
        assert_eq!(tested, (bin.starts[k + 1] - bin.starts[k]) as usize);
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
        /// The association pin: the segment index equals brute-force
        /// nearest-hub on random scatters, at random `t`, at every bin edge
        /// and the floats either side, and at both ends, on segments longer
        /// and shorter than one bin.
        #[test]
        fn hash_matches_brute_force(
            seed in 0u64..1_000,
            num_sites in 1usize..40,
        ) {
            let mut rng = EctRng::seed_from(seed);
            let sites: Vec<Point> = (0..num_sites)
                .map(|_| (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)))
                .collect();
            let mut roads: Vec<RoadSegment> = (0..4)
                .map(|_| road(
                    (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)),
                    (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0)),
                ))
                .collect();
            // Shorter than one bin, and a point.
            let a = (rng.uniform_in(0.0, 100.0), rng.uniform_in(0.0, 100.0));
            let short = rng.uniform_in(0.0, BIN_KM);
            roads.push(road(a, (a.0 + 0.6 * short, a.1 - 0.8 * short)));
            roads.push(road(a, a));
            let index = SegmentIndex::new(&sites, &roads).unwrap();
            for seg in 0..roads.len() {
                for _ in 0..16 {
                    check(&index, &roads, seg, rng.uniform());
                }
                let edges = edge_ts(&index, seg);
                for k in (0..4).chain((0..16).map(|_| rng.below(edges.len()))) {
                    check(&index, &roads, seg, edges[k]);
                }
            }
        }

        /// Clustered geometry: the roads and strided sites of generated
        /// cities and highways, duplicated sites whose ties go to the
        /// lowest index, queries at random `t` and at bin edges; off-road
        /// and outside-the-square crowd points take the brute-force path.
        #[test]
        fn hash_matches_brute_force_on_clustered_sites(
            seed in 0u64..1_000,
            hubs in 2usize..300,
            dup_every in 1usize..8,
        ) {
            let region = clustered_sites(seed, 600, hubs, dup_every);
            let sites = &region.base_stations;
            let index = SegmentIndex::new(sites, &region.roads).unwrap();
            let mut rng = EctRng::seed_from(seed ^ 0x5EED);
            for _ in 0..48 {
                let seg = rng.below(region.roads.len());
                check(&index, &region.roads, seg, rng.uniform());
                let edges = edge_ts(&index, seg);
                check(&index, &region.roads, seg, edges[rng.below(edges.len())]);
            }
            // A duplicate (listed after every original) never wins a tie.
            let off_road = (rng.uniform_in(-30.0, 130.0), rng.uniform_in(100.0, 140.0));
            prop_assert!(nearest_brute_force(sites, off_road).0 < hubs);
        }
    }
}
