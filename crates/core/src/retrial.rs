//! Retrial control (§4.5): how many destinations one request may try.

/// The counter-based retrial scheme of §4.5, plus an adaptive extension.
///
/// The paper's scheme is a plain counter: each destination tried increments
/// `c`, and the procedure keeps going while `c < R`. Since retrials sample
/// *distinct* destinations, `R` is also capped by the group size in
/// practice (§5.2.1 calls `R = 5 = K` "the upper limit").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrialPolicy {
    /// Allow up to `R` tries in total (the paper's `<A, R>` notation).
    FixedLimit(u32),
    /// Extension: allow up to `max` tries but stop early once the selection
    /// weights of the remaining destinations fall below `min_weight` —
    /// trying a destination the algorithm itself considers hopeless only
    /// burns signaling messages.
    Adaptive {
        /// Hard cap on tries.
        max: u32,
        /// Minimum total remaining weight worth another try, in `[0, 1]`.
        min_weight: f64,
    },
}

impl RetrialPolicy {
    /// The hard maximum number of tries.
    pub fn max_tries(&self) -> u32 {
        match self {
            RetrialPolicy::FixedLimit(r) => *r,
            RetrialPolicy::Adaptive { max, .. } => *max,
        }
    }

    /// Decides whether another destination should be tried after `tries`
    /// attempts, when the not-yet-tried destinations hold
    /// `remaining_weight` of the current selection distribution.
    ///
    /// A NaN `remaining_weight` (a degenerate weight vector upstream) is
    /// treated as *unknown*, not hopeless: the adaptive early-stop only
    /// fires on evidence the remainder is worthless, so NaN falls back to
    /// the plain counter. (NaN fails every `>=` comparison, so the naive
    /// check would silently forfeit the remaining retrials.)
    pub(crate) fn keep_going(&self, tries: u32, remaining_weight: f64) -> bool {
        match self {
            RetrialPolicy::FixedLimit(r) => tries < *r,
            RetrialPolicy::Adaptive { max, min_weight } => {
                tries < *max && (remaining_weight.is_nan() || remaining_weight >= *min_weight)
            }
        }
    }
}

impl Default for RetrialPolicy {
    /// `R = 2`: the paper's sweet spot (§5.2.1 observation 2 — "improvement
    /// of admission probability is significant when R increases from 1 to
    /// 2" and flattens beyond).
    fn default() -> Self {
        RetrialPolicy::FixedLimit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_limit_counts_tries() {
        let p = RetrialPolicy::FixedLimit(3);
        assert!(p.keep_going(0, 1.0));
        assert!(p.keep_going(2, 0.0));
        assert!(!p.keep_going(3, 1.0));
        assert_eq!(p.max_tries(), 3);
    }

    #[test]
    fn r_one_never_retries() {
        let p = RetrialPolicy::FixedLimit(1);
        assert!(p.keep_going(0, 1.0));
        assert!(!p.keep_going(1, 1.0));
    }

    #[test]
    fn adaptive_stops_on_hopeless_weights() {
        let p = RetrialPolicy::Adaptive {
            max: 5,
            min_weight: 0.05,
        };
        assert!(p.keep_going(1, 0.5));
        assert!(!p.keep_going(1, 0.01));
        assert!(!p.keep_going(5, 0.5));
        assert_eq!(p.max_tries(), 5);
    }

    #[test]
    fn adaptive_nan_weight_falls_back_to_the_counter() {
        // Regression: NaN fails `>=`, so the old check read NaN as
        // "hopeless" and silently stopped retrying after the first failure.
        let p = RetrialPolicy::Adaptive {
            max: 5,
            min_weight: 0.05,
        };
        assert!(p.keep_going(1, f64::NAN));
        assert!(p.keep_going(4, f64::NAN));
        assert!(!p.keep_going(5, f64::NAN), "hard cap still binds");
    }

    #[test]
    fn default_is_paper_sweet_spot() {
        assert_eq!(RetrialPolicy::default(), RetrialPolicy::FixedLimit(2));
    }
}
