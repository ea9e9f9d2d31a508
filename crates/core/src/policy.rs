//! Destination-selection policies: ED, WD/D+H and WD/D+B (§4.3).

use crate::weights::{
    bandwidth_distance_weights_into, distance_weights_into, history_adjusted_weights_into,
    history_damping, uniform_weights_into,
};
use crate::DacError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything a weight policy may look at when selecting a destination.
///
/// The three algorithms deliberately consume different subsets (that is the
/// paper's experimental axis): ED ignores all of it, WD/D+H reads
/// `distances` and `history`, WD/D+B reads `distances` and
/// `route_bandwidth_bps`.
#[derive(Debug, Clone, Copy)]
pub struct SelectionContext<'a> {
    /// Hop distance `D_i` of the fixed route to each member.
    pub distances: &'a [u32],
    /// Local admission history `h_i` for each member (eq. 5).
    pub history: &'a [u32],
    /// Route bottleneck bandwidth `B_i` in bits/s for each member (eq. 11).
    /// May be empty when the policy does not request bandwidth information.
    pub route_bandwidth_bps: &'a [f64],
}

/// A destination-selection weight policy (sealed).
///
/// Implementations return a probability distribution over the `K` group
/// members: non-negative weights summing to one (eq. 1). Assignment takes
/// `&mut self` because WD/D+H caches its eq. (4) base vector and, in
/// [`HistoryMode::Iterative`], carries persistent weight state between
/// selections.
pub trait WeightAssigner: fmt::Debug + Send + private::Sealed {
    /// Writes the member weights for the next selection into `out`,
    /// replacing its contents; a reused buffer keeps the request path
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Implementations panic on malformed contexts (mismatched lengths).
    fn assign_into(&mut self, ctx: &SelectionContext<'_>, out: &mut Vec<f64>);

    /// [`assign_into`](Self::assign_into) into a fresh vector.
    ///
    /// # Panics
    ///
    /// As [`assign_into`](Self::assign_into).
    fn assign(&mut self, ctx: &SelectionContext<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.assign_into(ctx, &mut out);
        out
    }

    /// The paper's name for the algorithm (`"ED"`, `"WD/D+H"`, `"WD/D+B"`).
    fn name(&self) -> &'static str;

    /// Whether [`SelectionContext::route_bandwidth_bps`] must be populated.
    /// Collecting that information costs signaling-protocol extensions
    /// (§4.3.2), so the experiment driver only gathers it on demand.
    fn needs_route_bandwidth(&self) -> bool {
        false
    }
}

mod private {
    /// Seals [`super::WeightAssigner`]: the algorithm set is the paper's.
    pub trait Sealed {}
    impl Sealed for super::Ed {}
    impl Sealed for super::WdDh {}
    impl Sealed for super::WdDb {}
}

/// Even Distribution (ED, §4.3.1): every member equally likely, `W_i = 1/K`.
///
/// Uses no status information beyond the group size — the cheapest and
/// least informed of the three algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ed;

impl WeightAssigner for Ed {
    fn assign_into(&mut self, ctx: &SelectionContext<'_>, out: &mut Vec<f64>) {
        uniform_weights_into(ctx.distances.len(), out);
    }

    fn name(&self) -> &'static str {
        "ED"
    }
}

/// How WD/D+H composes eqs. (8)–(10) across successive selections.
///
/// The paper initialises weights from eq. (4) and says they are "updated"
/// before every selection, which admits two readings; both are provided
/// and compared in the `ablation_history_mode` bench (see `DESIGN.md` §2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryMode {
    /// Recompute effective weights from the *base* distance weights and the
    /// current history at every selection (stable; the default).
    #[default]
    FromBase,
    /// Mutate a persistent weight vector: each selection's output becomes
    /// the next selection's input (the literal sequential reading).
    Iterative,
}

/// Weighted Distribution with route Distance and local admission History
/// (WD/D+H, §4.3.2): distance-biased weights damped by recent failures.
///
/// The damping strength is `alpha ∈ [0, 1]`: 0 gives history maximal
/// impact, 1 disables it (pure distance weighting).
#[derive(Debug, Clone)]
pub(crate) struct WdDh {
    alpha: f64,
    mode: HistoryMode,
    /// `damp[h] = α^h` for `h < DAMP_TABLE_LEN`, each entry from
    /// [`history_damping`] itself, so a lookup is bit-identical to the
    /// call it replaces. Longer histories fall back to the call.
    damp: [f64; DAMP_TABLE_LEN],
    /// The distances `base` was computed from.
    base_distances: Vec<u32>,
    /// The eq. (4) base weights, recomputed only when the distances change
    /// (one controller's distances never do).
    base: Vec<f64>,
    /// [`HistoryMode::Iterative`]'s weight vector: the previous output,
    /// empty before the first selection.
    persistent: Vec<f64>,
}

/// Histories shorter than this damp by table lookup. A full-horizon MCI
/// run at λ = 35 reaches `h = 31`.
const DAMP_TABLE_LEN: usize = 32;

impl WdDh {
    /// Creates the policy with the given damping parameter and update mode.
    ///
    /// # Errors
    ///
    /// [`DacError::InvalidParameter`] if `alpha` is outside `[0, 1]`.
    pub(crate) fn new(alpha: f64, mode: HistoryMode) -> Result<Self, DacError> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(DacError::InvalidParameter {
                name: "alpha",
                constraint: "must lie in [0, 1]",
                value: alpha,
            });
        }
        Ok(WdDh {
            alpha,
            mode,
            damp: std::array::from_fn(|h| history_damping(alpha, h as u32)),
            base_distances: Vec::new(),
            base: Vec::new(),
            persistent: Vec::new(),
        })
    }

    /// The damping parameter α.
    #[cfg(test)]
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `α^h`, by table lookup for short histories.
    fn damp(&self, h: u32) -> f64 {
        match self.damp.get(h as usize) {
            Some(&d) => d,
            None => history_damping(self.alpha, h),
        }
    }

    /// The configured update mode.
    #[cfg(test)]
    pub(crate) fn mode(&self) -> HistoryMode {
        self.mode
    }
}

impl WeightAssigner for WdDh {
    fn assign_into(&mut self, ctx: &SelectionContext<'_>, out: &mut Vec<f64>) {
        if self.base_distances != ctx.distances {
            distance_weights_into(ctx.distances, &mut self.base);
            self.base_distances.clear();
            self.base_distances.extend_from_slice(ctx.distances);
        }
        let iterative = self.mode == HistoryMode::Iterative;
        let input = if iterative && !self.persistent.is_empty() {
            &self.persistent
        } else {
            &self.base
        };
        history_adjusted_weights_into(input, ctx.history, |h| self.damp(h), out);
        if iterative {
            self.persistent.clone_from(out);
        }
    }

    fn name(&self) -> &'static str {
        "WD/D+H"
    }
}

/// Weighted Distribution with route Distance and available Bandwidth
/// (WD/D+B, §4.3.2): `W_i ∝ B_i / D_i` (eq. 12).
///
/// Requires the route bottleneck bandwidths, which in deployment means
/// extending the signaling protocol (RESV feedback); the experiment driver
/// reads them from the link ledger, matching the paper's assumption that
/// the information is simply available.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WdDb;

impl WeightAssigner for WdDb {
    fn assign_into(&mut self, ctx: &SelectionContext<'_>, out: &mut Vec<f64>) {
        assert!(
            !ctx.route_bandwidth_bps.is_empty(),
            "WD/D+B requires route bandwidth information in the selection context"
        );
        bandwidth_distance_weights_into(ctx.route_bandwidth_bps, ctx.distances, out);
    }

    fn name(&self) -> &'static str {
        "WD/D+B"
    }

    fn needs_route_bandwidth(&self) -> bool {
        true
    }
}

/// Serialisable specification of a weight policy — what experiment configs
/// store and sweep over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Even Distribution.
    Ed,
    /// WD/D+H with damping `alpha` and update `mode`.
    WdDh {
        /// History damping parameter in `[0, 1]`.
        alpha: f64,
        /// Weight-update interpretation.
        mode: HistoryMode,
    },
    /// WD/D+B.
    WdDb,
}

impl PolicySpec {
    /// WD/D+H with the repository default `α = 0.5` and
    /// [`HistoryMode::FromBase`].
    pub fn wd_dh_default() -> Self {
        PolicySpec::WdDh {
            alpha: 0.5,
            mode: HistoryMode::FromBase,
        }
    }

    /// Instantiates the policy.
    ///
    /// # Errors
    ///
    /// [`DacError::InvalidParameter`] for an out-of-range `alpha`.
    pub fn build(&self) -> Result<Box<dyn WeightAssigner>, DacError> {
        Ok(match self {
            PolicySpec::Ed => Box::new(Ed),
            PolicySpec::WdDh { alpha, mode } => Box::new(WdDh::new(*alpha, *mode)?),
            PolicySpec::WdDb => Box::new(WdDb),
        })
    }

    /// The paper's display name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Ed => "ED",
            PolicySpec::WdDh { .. } => "WD/D+H",
            PolicySpec::WdDb => "WD/D+B",
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx<'a>(distances: &'a [u32], history: &'a [u32], bw: &'a [f64]) -> SelectionContext<'a> {
        SelectionContext {
            distances,
            history,
            route_bandwidth_bps: bw,
        }
    }

    #[test]
    fn ed_is_uniform_regardless_of_context() {
        let mut ed = Ed;
        let w = ed.assign(&ctx(&[1, 9, 3], &[5, 0, 2], &[]));
        assert!(w.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
        assert_eq!(ed.name(), "ED");
        assert!(!ed.needs_route_bandwidth());
    }

    #[test]
    fn wddh_from_base_is_stateless() {
        let mut p = WdDh::new(0.5, HistoryMode::FromBase).unwrap();
        let c = ctx(&[1, 2], &[1, 0], &[]);
        let a = p.assign(&c);
        let b = p.assign(&c);
        assert_eq!(a, b, "FromBase must not accumulate state");
        assert!(a[0] < a[1], "failed member damped below clean member");
    }

    #[test]
    fn wddh_iterative_accumulates() {
        let mut p = WdDh::new(0.5, HistoryMode::Iterative).unwrap();
        let c = ctx(&[1, 1], &[1, 0], &[]);
        let a = p.assign(&c);
        let b = p.assign(&c);
        assert!(
            b[0] < a[0],
            "iterative mode compounds damping: {a:?} then {b:?}"
        );
    }

    #[test]
    fn wddh_rejects_bad_alpha() {
        assert!(matches!(
            WdDh::new(1.5, HistoryMode::FromBase),
            Err(DacError::InvalidParameter { name: "alpha", .. })
        ));
        assert!(WdDh::new(0.0, HistoryMode::FromBase).is_ok());
        assert!(WdDh::new(1.0, HistoryMode::FromBase).is_ok());
        assert!(WdDh::new(f64::NAN, HistoryMode::FromBase).is_err());
    }

    #[test]
    fn wddh_accessors() {
        let p = WdDh::new(0.25, HistoryMode::Iterative).unwrap();
        assert_eq!(p.alpha(), 0.25);
        assert_eq!(p.mode(), HistoryMode::Iterative);
        assert_eq!(p.name(), "WD/D+H");
    }

    #[test]
    fn wddb_uses_bandwidth() {
        let mut p = WdDb;
        assert!(p.needs_route_bandwidth());
        let w = p.assign(&ctx(&[1, 1], &[0, 0], &[100.0, 300.0]));
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires route bandwidth")]
    fn wddb_without_bandwidth_panics() {
        let mut p = WdDb;
        let _ = p.assign(&ctx(&[1, 1], &[0, 0], &[]));
    }

    #[test]
    fn spec_builds_matching_policies() {
        for spec in [
            PolicySpec::Ed,
            PolicySpec::wd_dh_default(),
            PolicySpec::WdDb,
        ] {
            let policy = spec.build().unwrap();
            assert_eq!(policy.name(), spec.name());
            assert_eq!(spec.to_string(), spec.name());
        }
        assert!(PolicySpec::WdDh {
            alpha: -0.1,
            mode: HistoryMode::FromBase
        }
        .build()
        .is_err());
    }

    /// Every policy shape: ED, WD/D+H in both modes, and WD/D+B.
    fn every_policy(alpha: f64) -> Vec<Box<dyn WeightAssigner>> {
        let mut policies: Vec<Box<dyn WeightAssigner>> = vec![Box::new(Ed), Box::new(WdDb)];
        for mode in [HistoryMode::FromBase, HistoryMode::Iterative] {
            policies.push(Box::new(WdDh::new(alpha, mode).unwrap()));
        }
        policies
    }

    /// One member's `(distance, history, route bandwidth)`: a third of the
    /// histories clean, the rest reaching past the damp table, and a
    /// quarter of the bandwidths zero.
    fn member() -> impl Strategy<Value = (u32, u32, f64)> {
        (0u32..12, any::<u8>(), 0u32..80, any::<u8>(), 0.0f64..1e8).prop_map(|(d, hk, h, bk, b)| {
            let h = if hk % 3 == 0 { 0 } else { h };
            let b = if bk % 4 == 0 { 0.0 } else { b };
            (d, h, b)
        })
    }

    fn bits(weights: &[f64]) -> Vec<u64> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    proptest! {
        /// `assign_into` through one dirty buffer reused across a run of
        /// selections equals `assign` on a twin policy, bit for bit.
        #[test]
        fn assign_into_a_reused_buffer_matches_assign(
            k in 1usize..=16,
            steps in proptest::collection::vec(proptest::collection::vec(member(), 16), 1..6),
            alpha in 0.0f64..=1.0,
            garbage in proptest::collection::vec(-1e9f64..1e9, 0..24),
        ) {
            let twins = every_policy(alpha).into_iter().zip(every_policy(alpha));
            for (mut into, mut fresh) in twins {
                let mut buf = garbage.clone();
                for step in &steps {
                    let (distances, rest): (Vec<u32>, Vec<(u32, f64)>) =
                        step[..k].iter().map(|&(d, h, b)| (d, (h, b))).unzip();
                    let (history, bw): (Vec<u32>, Vec<f64>) = rest.into_iter().unzip();
                    let c = ctx(&distances, &history, &bw);
                    into.assign_into(&c, &mut buf);
                    prop_assert_eq!(bits(&buf), bits(&fresh.assign(&c)), "{}", into.name());
                }
            }
        }

        /// WD/D+H's damp table and cached base vector change no bit: each
        /// selection equals the free functions of eqs. (4) and (8)–(10),
        /// which call `powi` for every tainted member.
        #[test]
        fn wddh_equals_the_powi_formulas(
            k in 1usize..=16,
            steps in proptest::collection::vec(proptest::collection::vec(member(), 16), 1..6),
            alpha in 0.0f64..=1.0,
        ) {
            let mut plain = WdDh::new(alpha, HistoryMode::FromBase).unwrap();
            let (mut base, mut expected) = (Vec::new(), Vec::new());
            for step in &steps {
                let distances: Vec<u32> = step[..k].iter().map(|m| m.0).collect();
                let history: Vec<u32> = step[..k].iter().map(|m| m.1).collect();
                let c = ctx(&distances, &history, &[]);
                crate::weights::distance_weights_into(&distances, &mut base);
                crate::weights::history_adjusted_weights_into(
                    &base,
                    &history,
                    |h| crate::weights::history_damping(alpha, h),
                    &mut expected,
                );
                prop_assert_eq!(bits(&plain.assign(&c)), bits(&expected));
            }
        }
    }
}
