//! Pluggable placement policies for the pod control plane.
//!
//! PR 7 buried delegation inside `ctrl`: a greedy best-fit against the
//! previous barrier's capacity view, every job forced wholly inside one
//! rack group. This module extracts that decision into a policy layer:
//!
//! * a [`PlacementPolicy`] is a **pure, deterministic** function
//!   `(capacity view, demand) -> PlacementDecision` — of the barrier
//!   capacity view and the job shape only, never of worker count, wall
//!   clock, or iteration order of an unordered map — so every policy
//!   keeps the pod fingerprint shard-count-invariant;
//! * [`GreedyBestFit`] reproduces PR 7's delegation bit-for-bit (the
//!   `BENCH_pod.json` fingerprint and journal hash are unchanged under
//!   the default policy);
//! * [`FragAwareScored`] adds fragmentation-aware scoring: small jobs
//!   pack tightest-fit into already-broken groups, large jobs reserve
//!   pristine groups, so contiguous capacity survives a mixed trace;
//! * [`CrossGroupStitch`] splits a job that fits no single group into
//!   per-group Z-slab legs stitched over the rack-face OCS banks
//!   ([`topo::band`]), admitted atomically by the control plane as one
//!   `MultiGroupAdmit` journal record.
//!
//! A decision is advisory: the control plane still admits against the
//! true occupancy of each domain and falls back deterministically when
//! the estimate was stale.

use topo::{Dim, Shape3};

/// Which placement policy the pod control plane delegates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// PR 7's greedy best-fit (the default; bit-identical baselines).
    #[default]
    Greedy,
    /// Fragmentation-aware scoring with pristine-group reservation.
    FragAware,
    /// Cross-group stitching over the rack-face OCS banks.
    Stitch,
}

impl PolicyKind {
    /// Every policy, in stable declaration order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Greedy,
        PolicyKind::FragAware,
        PolicyKind::Stitch,
    ];

    /// Stable name: the `spsim pod --policy` flag value and the
    /// `BENCH_pod.json` / sweep-label spelling.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Greedy => "greedy",
            PolicyKind::FragAware => "frag",
            PolicyKind::Stitch => "stitch",
        }
    }

    /// Parse a [`name`](Self::name) back into a kind.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Stable integer tag for snapshot serialization.
    pub fn tag(self) -> u64 {
        match self {
            PolicyKind::Greedy => 0,
            PolicyKind::FragAware => 1,
            PolicyKind::Stitch => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u64) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.tag() == tag)
    }

    /// The policy implementation for this kind.
    pub fn policy(self) -> &'static dyn PlacementPolicy {
        match self {
            PolicyKind::Greedy => &GreedyBestFit,
            PolicyKind::FragAware => &FragAwareScored,
            PolicyKind::Stitch => &CrossGroupStitch,
        }
    }
}

/// The pod control plane's capacity view at an epoch barrier: the
/// previous barrier's true per-group free counts, decremented by the
/// demand already delegated at this barrier. An *estimate* — the domain
/// still admits against true occupancy.
#[derive(Debug, Clone, Copy)]
pub struct CapacityView<'a> {
    /// Estimated free chips per rack group, indexed by group.
    pub free: &'a [usize],
    /// Total chips in one rack group.
    pub group_chips: usize,
    /// Z-extent of one rack group in pod coordinates.
    pub group_z: usize,
}

/// One per-group leg of a cross-group stitched slice: the same X/Y
/// cross-section as the job, a Z-slab of its extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchLeg {
    /// Target rack group.
    pub group: usize,
    /// Leg extent (`extent.x/y` equal the job's, Z-extents sum to it).
    pub extent: Shape3,
}

/// What a policy decided for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementDecision {
    /// Delegate the whole job to one rack-group shard (PR 7 semantics).
    SingleGroup(usize),
    /// Split the job into consecutive per-group legs stitched over the
    /// rack-face OCS banks; admitted all-or-nothing at the barrier.
    Stitch(Vec<StitchLeg>),
}

/// A placement policy: a pure, deterministic map from the barrier
/// capacity view and one job's demand to a placement decision.
///
/// Determinism contract: the result may depend only on the arguments.
/// No interior mutability, no randomness, no clocks — two calls with
/// equal inputs must return equal decisions on every host and thread.
pub trait PlacementPolicy {
    /// Decide where `demand` lands under `view`.
    fn place(&self, view: &CapacityView<'_>, demand: Shape3) -> PlacementDecision;

    /// The stable [`PolicyKind`] name of this policy.
    fn name(&self) -> &'static str;
}

/// Greedy delegation: the fittest domain that can hold `need` chips
/// (most free capacity, ties to the lowest group index); if none can,
/// the domain with the most free capacity anyway — it will queue or
/// deny deterministically.
pub fn pick_group(free: &[usize], need: usize) -> usize {
    let mut best_any = (0usize, 0usize);
    let mut best_fit: Option<(usize, usize)> = None;
    for (g, &f) in free.iter().enumerate() {
        if f > best_any.1 {
            best_any = (g, f);
        }
        if f >= need && best_fit.is_none_or(|(_, bf)| f > bf) {
            best_fit = Some((g, f));
        }
    }
    best_fit.unwrap_or(best_any).0
}

/// PR 7's delegation, verbatim: [`pick_group`] on the capacity view.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBestFit;

impl PlacementPolicy for GreedyBestFit {
    fn place(&self, view: &CapacityView<'_>, demand: Shape3) -> PlacementDecision {
        PlacementDecision::SingleGroup(pick_group(view.free, demand.volume()))
    }

    fn name(&self) -> &'static str {
        PolicyKind::Greedy.name()
    }
}

/// Fragmentation-aware scoring with pristine-group reservation.
///
/// Greedy best-fit is a *worst*-fit among fitting groups: it scatters
/// small jobs across the emptiest groups, breaking every pristine group
/// early, so a later rack-sized job finds no group that fits. This
/// policy packs instead:
///
/// * **small jobs** (≤ half a group) go tightest-fit into an
///   already-broken fitting group — the smallest leftover wins, ties to
///   the lowest index — touching a pristine group only when no broken
///   group fits;
/// * **large jobs** (> half a group) claim the lowest-index pristine
///   group, falling back to the fitting group with the most room.
///
/// When nothing fits at all it degrades to [`pick_group`]'s fallback so
/// the job queues or denies exactly like PR 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct FragAwareScored;

impl PlacementPolicy for FragAwareScored {
    fn place(&self, view: &CapacityView<'_>, demand: Shape3) -> PlacementDecision {
        let need = demand.volume();
        let mut tight_broken: Option<(usize, usize)> = None;
        let mut first_pristine: Option<usize> = None;
        let mut roomiest_fit: Option<(usize, usize)> = None;
        for (g, &f) in view.free.iter().enumerate() {
            if f < need {
                continue;
            }
            if roomiest_fit.is_none_or(|(_, bf)| f > bf) {
                roomiest_fit = Some((g, f));
            }
            if f == view.group_chips {
                if first_pristine.is_none() {
                    first_pristine = Some(g);
                }
            } else {
                let leftover = f - need;
                if tight_broken.is_none_or(|(_, bl)| leftover < bl) {
                    tight_broken = Some((g, leftover));
                }
            }
        }
        let reserve = need > view.group_chips / 2;
        let chosen = if reserve {
            first_pristine.or(roomiest_fit.map(|(g, _)| g))
        } else {
            tight_broken.map(|(g, _)| g).or(first_pristine)
        };
        let g = match chosen {
            Some(g) => g,
            None => pick_group(view.free, need),
        };
        PlacementDecision::SingleGroup(g)
    }

    fn name(&self) -> &'static str {
        PolicyKind::FragAware.name()
    }
}

/// Cross-group stitching over the rack-face OCS banks.
///
/// While some single group fits the job, this behaves exactly like
/// [`GreedyBestFit`]. When none does and the job has at least two Z
/// layers, it looks for the shortest run of consecutive groups whose
/// combined estimate covers the job and splits the shape into per-group
/// Z-slabs (`x`/`y` preserved); the control plane then admits the legs
/// all-or-nothing and journals one `MultiGroupAdmit` record carrying the
/// stitch-port assignment on each crossed rack face. If no run covers
/// the job either, it degrades to [`pick_group`] like PR 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossGroupStitch;

impl PlacementPolicy for CrossGroupStitch {
    fn place(&self, view: &CapacityView<'_>, demand: Shape3) -> PlacementDecision {
        let need = demand.volume();
        if view.free.iter().any(|&f| f >= need) {
            return PlacementDecision::SingleGroup(pick_group(view.free, need));
        }
        let unit = demand.extent(Dim::X) * demand.extent(Dim::Y);
        let z = demand.extent(Dim::Z);
        if z < 2 || unit == 0 {
            return PlacementDecision::SingleGroup(pick_group(view.free, need));
        }
        // Z layers each group could host by the estimate, capped by the
        // group's own Z extent.
        let layers_of = |f: usize| (f / unit).min(view.group_z);
        let mut best: Option<(usize, usize)> = None; // (start, legs)
        for start in 0..view.free.len() {
            let mut remaining = z;
            let mut legs = 0usize;
            for &f in view.free.iter().skip(start) {
                let take = layers_of(f).min(remaining);
                if take == 0 {
                    break;
                }
                remaining -= take;
                legs += 1;
                if remaining == 0 {
                    break;
                }
            }
            if remaining == 0 && legs >= 2 && best.is_none_or(|(_, bl)| legs < bl) {
                best = Some((start, legs));
            }
        }
        let Some((start, _)) = best else {
            return PlacementDecision::SingleGroup(pick_group(view.free, need));
        };
        let mut legs = Vec::new();
        let mut remaining = z;
        for (g, &f) in view.free.iter().enumerate().skip(start) {
            if remaining == 0 {
                break;
            }
            let take = layers_of(f).min(remaining);
            if take == 0 {
                break;
            }
            legs.push(StitchLeg {
                group: g,
                extent: Shape3::new(demand.extent(Dim::X), demand.extent(Dim::Y), take),
            });
            remaining -= take;
        }
        if remaining == 0 && legs.len() >= 2 {
            PlacementDecision::Stitch(legs)
        } else {
            PlacementDecision::SingleGroup(pick_group(view.free, need))
        }
    }

    fn name(&self) -> &'static str {
        PolicyKind::Stitch.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(free: &'a [usize]) -> CapacityView<'a> {
        CapacityView {
            free,
            group_chips: 64,
            group_z: 4,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for k in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(k.name()), Some(k));
            assert_eq!(PolicyKind::from_tag(k.tag()), Some(k));
            assert_eq!(k.policy().name(), k.name());
        }
        assert_eq!(PolicyKind::parse("nonsense"), None);
        assert_eq!(PolicyKind::from_tag(99), None);
        assert_eq!(PolicyKind::default(), PolicyKind::Greedy);
    }

    #[test]
    fn greedy_is_pick_group() {
        let free = [10, 40, 30, 40];
        let shape = Shape3::new(2, 2, 2); // need 8
        let d = GreedyBestFit.place(&view(&free), shape);
        assert_eq!(d, PlacementDecision::SingleGroup(pick_group(&free, 8)));
        // Worst-fit among fitting groups, ties to the lowest index.
        assert_eq!(d, PlacementDecision::SingleGroup(1));
    }

    #[test]
    fn greedy_falls_back_to_most_free_when_nothing_fits() {
        let free = [3, 5, 4];
        assert_eq!(
            GreedyBestFit.place(&view(&free), Shape3::new(4, 4, 1)),
            PlacementDecision::SingleGroup(1)
        );
    }

    #[test]
    fn frag_aware_packs_small_jobs_into_broken_groups() {
        // Group 1 is broken (50 free), groups 0 and 2 pristine.
        let free = [64, 50, 64];
        let d = FragAwareScored.place(&view(&free), Shape3::new(2, 2, 1));
        assert_eq!(d, PlacementDecision::SingleGroup(1), "tightest broken fit");
        // Greedy would have broken a pristine group instead.
        assert_eq!(
            GreedyBestFit.place(&view(&free), Shape3::new(2, 2, 1)),
            PlacementDecision::SingleGroup(0)
        );
    }

    #[test]
    fn frag_aware_reserves_pristine_groups_for_large_jobs() {
        let free = [40, 64, 60];
        let d = FragAwareScored.place(&view(&free), Shape3::new(4, 4, 4));
        assert_eq!(d, PlacementDecision::SingleGroup(1), "pristine reserved");
        // Small job prefers the tightest broken group even if pristine
        // groups have more room.
        let d = FragAwareScored.place(&view(&free), Shape3::new(2, 2, 1));
        assert_eq!(d, PlacementDecision::SingleGroup(0));
    }

    #[test]
    fn frag_aware_degrades_to_greedy_when_nothing_fits() {
        let free = [3, 5, 4];
        let shape = Shape3::new(4, 4, 2);
        assert_eq!(
            FragAwareScored.place(&view(&free), shape),
            PlacementDecision::SingleGroup(pick_group(&free, shape.volume()))
        );
    }

    #[test]
    fn stitch_matches_greedy_while_one_group_fits() {
        let free = [64, 64, 64];
        let shape = Shape3::new(4, 4, 4);
        assert_eq!(
            CrossGroupStitch.place(&view(&free), shape),
            GreedyBestFit.place(&view(&free), shape)
        );
    }

    #[test]
    fn stitch_splits_over_the_shortest_consecutive_run() {
        // No group holds 64; groups 1+2 together do.
        let free = [16, 32, 32, 16];
        let d = CrossGroupStitch.place(&view(&free), Shape3::new(4, 4, 4));
        let PlacementDecision::Stitch(legs) = d else {
            panic!("expected a stitch decision");
        };
        assert_eq!(legs.len(), 2);
        let groups: Vec<usize> = legs.iter().map(|l| l.group).collect();
        assert_eq!(groups, vec![1, 2], "consecutive groups");
        let z_total: usize = legs.iter().map(|l| l.extent.extent(Dim::Z)).sum();
        assert_eq!(z_total, 4, "legs partition the Z extent");
        for l in &legs {
            assert_eq!(l.extent.extent(Dim::X), 4);
            assert_eq!(l.extent.extent(Dim::Y), 4);
        }
    }

    #[test]
    fn stitch_respects_the_group_z_cap() {
        let mut v = view(&[]);
        let free = [32, 32];
        v.free = &free;
        v.group_z = 2;
        v.group_chips = 32;
        // 4×4×4 = 64 chips; each group can host at most 2 Z layers.
        let d = CrossGroupStitch.place(&v, Shape3::new(4, 4, 4));
        let PlacementDecision::Stitch(legs) = d else {
            panic!("expected a stitch decision");
        };
        assert_eq!(legs.len(), 2);
        for l in &legs {
            assert!(l.extent.extent(Dim::Z) <= 2);
        }
    }

    #[test]
    fn stitch_degrades_when_no_run_covers_the_job() {
        // Single-layer job can never stitch; tiny estimates can't cover.
        let free = [10, 10, 10];
        let flat = CrossGroupStitch.place(&view(&free), Shape3::new(4, 4, 1));
        assert_eq!(flat, PlacementDecision::SingleGroup(pick_group(&free, 16)));
        let free = [1, 1, 1];
        let big = CrossGroupStitch.place(&view(&free), Shape3::new(4, 4, 4));
        assert_eq!(big, PlacementDecision::SingleGroup(pick_group(&free, 64)));
    }

    #[test]
    fn decisions_are_pure_functions_of_the_view() {
        let free = [16, 32, 32, 16];
        for k in PolicyKind::ALL {
            for shape in [Shape3::new(2, 2, 1), Shape3::new(4, 4, 4)] {
                let a = k.policy().place(&view(&free), shape);
                let b = k.policy().place(&view(&free), shape);
                assert_eq!(a, b, "{} must be deterministic", k.name());
            }
        }
    }
}
