//! The paper's analytical complexity model (§3.2).
//!
//! `Φ(W, R, SEL)` estimates the expected number of partial and full matches
//! a CEP mechanism creates inside one window: for each prefix length `i`,
//! the product of expected applicable-event counts (`W · r_k`) and all
//! pairwise predicate selectivities among the first `i` steps.
//!
//! `C_ECEP = Φ(W, R, SEL)`; a filtration-based ACEP system instead pays
//! `C_ACEP = Φ(W, R_Ψ, SEL) + C_filter` where `R_Ψ` are the post-filter
//! rates. These estimators drive the cost discussion reproduced in
//! EXPERIMENTS.md and the ZStream cost model.

use serde::{Deserialize, Serialize};

/// Inputs of the Φ formula.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhiModel {
    /// Window size `W` (count-based).
    pub window: f64,
    /// Arrival rate `r_i` of each step's applicable events (events per
    /// stream position).
    pub rates: Vec<f64>,
    /// Pairwise predicate selectivity `sel[i][j]` (1.0 when unconstrained).
    pub sel: Vec<Vec<f64>>,
}

impl PhiModel {
    /// Model with no predicates (all selectivities 1).
    pub fn unconstrained(window: f64, rates: Vec<f64>) -> Self {
        let n = rates.len();
        Self {
            window,
            rates,
            sel: vec![vec![1.0; n]; n],
        }
    }

    /// Expected number of partial matches of exactly `i` steps (1-based;
    /// `i = n` are full matches).
    pub fn partials_of_len(&self, i: usize) -> f64 {
        assert!(
            i >= 1 && i <= self.rates.len(),
            "prefix length out of range"
        );
        let mut v = 1.0;
        for k in 0..i {
            v *= self.window * self.rates[k];
        }
        for a in 0..i {
            for b in (a + 1)..i {
                v *= self.sel[a][b];
            }
        }
        v
    }

    /// `Φ(W, R, SEL)`: total expected partial + full matches per window.
    pub fn phi(&self) -> f64 {
        (1..=self.rates.len())
            .map(|i| self.partials_of_len(i))
            .sum()
    }

    /// Expected full matches per window (the last term of Φ).
    pub fn full_matches(&self) -> f64 {
        self.partials_of_len(self.rates.len())
    }

    /// The model after filtering: each rate `r_i` scaled by `(1 - Ψ_i)`
    /// where `Ψ_i` is the filtering ratio of step `i`'s events (§3.2).
    pub fn filtered(&self, psi: &[f64]) -> PhiModel {
        assert_eq!(psi.len(), self.rates.len(), "one Ψ per step");
        let rates = self
            .rates
            .iter()
            .zip(psi)
            .map(|(&r, &p)| r * (1.0 - p).clamp(0.0, 1.0))
            .collect();
        PhiModel {
            window: self.window,
            rates,
            sel: self.sel.clone(),
        }
    }

    /// `C_ACEP = Φ(W, R_Ψ, SEL) + C_filter`.
    pub fn acep_cost(&self, psi: &[f64], c_filter: f64) -> f64 {
        self.filtered(psi).phi() + c_filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_grows_exponentially_with_window() {
        // 3 steps, rate 0.1 each, no predicates: Φ = Σ (0.1 W)^i.
        let m = |w: f64| PhiModel::unconstrained(w, vec![0.1; 3]).phi();
        let phi10 = m(10.0);
        let phi100 = m(100.0);
        assert!((phi10 - (1.0 + 1.0 + 1.0)).abs() < 1e-9);
        assert!((phi100 - (10.0 + 100.0 + 1000.0)).abs() < 1e-6);
        assert!(phi100 / phi10 > 100.0, "superlinear growth in W");
    }

    #[test]
    fn selectivity_reduces_deeper_prefixes_only() {
        let mut m = PhiModel::unconstrained(10.0, vec![0.5; 2]);
        let before = m.phi();
        m.sel[0][1] = 0.1;
        let after = m.phi();
        // Length-1 partials unchanged (5), full matches scaled by 0.1.
        assert!((before - (5.0 + 25.0)).abs() < 1e-9);
        assert!((after - (5.0 + 2.5)).abs() < 1e-9);
    }

    #[test]
    fn filtering_shrinks_phi() {
        let m = PhiModel::unconstrained(100.0, vec![0.2; 4]);
        let filtered = m.filtered(&[0.9; 4]);
        assert!(filtered.phi() < m.phi() / 100.0);
    }

    #[test]
    fn acep_beats_ecep_only_with_many_partials() {
        // §3.2 discussion: with few partial matches, the filter overhead
        // dominates; with many, filtration wins.
        let sparse = PhiModel::unconstrained(10.0, vec![0.01; 3]);
        let dense = PhiModel::unconstrained(300.0, vec![0.3; 5]);
        let c_filter = 50.0;
        let psi = vec![0.95; 5];
        assert!(sparse.acep_cost(&[0.95; 3], c_filter) > sparse.phi());
        assert!(dense.acep_cost(&psi, c_filter) < dense.phi());
    }

    #[test]
    fn low_psi_gives_no_advantage() {
        // §3.2: when almost nothing is filtered (Ψ → 0), C_filteredcep ≈ C_ECEP.
        let m = PhiModel::unconstrained(100.0, vec![0.2; 4]);
        let nearly_unfiltered = m.filtered(&[0.001; 4]);
        assert!(nearly_unfiltered.phi() > 0.98 * m.phi());
    }

    #[test]
    fn full_matches_is_last_term() {
        let m = PhiModel::unconstrained(10.0, vec![0.5, 0.2]);
        assert!((m.full_matches() - 5.0 * 2.0).abs() < 1e-9);
    }
}

/// Estimate a [`PhiModel`] for a compiled plan branch from a stream sample:
/// rates and pairwise selectivities are measured the same way the join-order
/// cost model measures them ([`crate::plan::CostModel::estimate`]), giving
/// the analytical `C_ECEP` prediction for real data. Experiments use this to
/// sanity-check measured partial-match counters against the §3.2 model.
pub fn estimate_phi(
    branch: &crate::plan::Branch,
    window: f64,
    sample: &[dlacep_events::PrimitiveEvent],
) -> PhiModel {
    let model = crate::plan::CostModel::estimate(branch, sample);
    PhiModel {
        window,
        rates: model.rates,
        sel: model.sel,
    }
}

#[cfg(test)]
mod estimate_tests {
    use super::*;
    use crate::engine::CepEngine;
    use crate::nfa::NfaEngine;
    use crate::pattern::ast::{Pattern, PatternExpr, TypeSet};
    use crate::plan::Plan;
    use dlacep_events::{EventStream, TypeId, WindowSpec};

    #[test]
    fn estimated_phi_tracks_measured_partials_within_an_order() {
        // SEQ(A, B) without conditions on a uniform 4-type stream: Φ per
        // window ≈ W·r + (W·r)², and total creations scale with the stream.
        let mut s = EventStream::new();
        for i in 0..2_000u64 {
            s.push(TypeId((i % 4) as u32), i, vec![0.0]);
        }
        let w = 16u64;
        let pattern = Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
                PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
            ]),
            vec![],
            WindowSpec::Count(w),
        );
        let plan = Plan::compile(&pattern).unwrap();
        let phi = estimate_phi(&plan.branches[0], w as f64, s.events());
        // Measured: creations per event position ≈ Φ / W.
        let mut engine = NfaEngine::new(&pattern).unwrap();
        engine.run(s.events());
        let measured_per_pos = engine.stats().partial_matches_created as f64 / s.len() as f64;
        let predicted_per_pos = phi.phi() / w as f64;
        let ratio = measured_per_pos / predicted_per_pos;
        assert!(
            (0.1..10.0).contains(&ratio),
            "measured/predicted per-position ratio {ratio} out of range"
        );
    }
}
