//! Head-to-head evaluation of DLACEP against exact CEP (paper §5.1):
//! throughput gain, recall, precision/F1 over the emitted match sets, FN%.

use crate::filter::Filter;
use crate::pipeline::{Dlacep, DlacepReport};
use dlacep_cep::engine::CepEngine;
use dlacep_cep::{EngineStats, Match, NfaEngine, Pattern};
use dlacep_events::{EventId, PrimitiveEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Result of comparing one ACEP run against the ECEP reference on the same
/// stream prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Exact match count.
    pub ecep_matches: usize,
    /// ACEP match count.
    pub acep_matches: usize,
    /// Matches found by both (set intersection on event-id sets).
    pub common_matches: usize,
    /// ECEP wall time in seconds.
    pub ecep_secs: f64,
    /// ACEP wall time (filter + extraction) in seconds.
    pub acep_secs: f64,
    /// Events per second, exact engine.
    pub ecep_throughput: f64,
    /// Events per second, DLACEP.
    pub acep_throughput: f64,
    /// `acep_throughput / ecep_throughput` (the paper's headline metric).
    pub throughput_gain: f64,
    /// |common| / |ecep| — fraction of true matches recovered.
    pub recall: f64,
    /// |common| / |acep| — 1.0 unless the pattern has negation (§4.4).
    pub precision: f64,
    /// Harmonic mean of recall and precision.
    pub f1: f64,
    /// Missed matches as a percentage of the exact set (Fig. 11).
    pub fn_percent: f64,
    /// Fraction of events filtered out before extraction.
    pub filtering_ratio: f64,
    /// Partial matches created by the exact engine.
    pub ecep_partials: u64,
    /// Partial matches created by DLACEP's extractor.
    pub acep_partials: u64,
}

fn keyset(ms: &[Match]) -> BTreeSet<Vec<EventId>> {
    ms.iter().map(|m| m.event_ids.to_vec()).collect()
}

/// Run the exact NFA engine over the events, timing it.
pub fn run_ecep(
    pattern: &Pattern,
    events: &[PrimitiveEvent],
) -> (Vec<Match>, Duration, EngineStats) {
    let start = Instant::now();
    let mut engine = NfaEngine::new(pattern).expect("pattern compiles");
    let matches = engine.run(events);
    (matches, start.elapsed(), *engine.stats())
}

/// Compare match sets and timings into a [`ComparisonReport`].
pub fn compare_runs(
    events_total: usize,
    ecep_matches: &[Match],
    ecep_time: Duration,
    ecep_stats: &EngineStats,
    acep: &DlacepReport,
) -> ComparisonReport {
    let truth = keyset(ecep_matches);
    let ours = keyset(&acep.matches());
    let common = truth.intersection(&ours).count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        common as f64 / truth.len() as f64
    };
    let precision = if ours.is_empty() {
        1.0
    } else {
        common as f64 / ours.len() as f64
    };
    let f1 = if recall + precision == 0.0 {
        0.0
    } else {
        2.0 * recall * precision / (recall + precision)
    };
    let ecep_secs = ecep_time.as_secs_f64();
    let acep_secs = acep.total_time().as_secs_f64();
    let ecep_throughput = if ecep_secs > 0.0 {
        events_total as f64 / ecep_secs
    } else {
        f64::INFINITY
    };
    let acep_throughput = acep.throughput();
    // Gain is the wall-time ratio, which stays finite and meaningful even
    // when a tiny stream makes one (or both) throughputs infinite.
    let throughput_gain = if acep_secs > 0.0 {
        ecep_secs / acep_secs
    } else if ecep_secs > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    ComparisonReport {
        ecep_matches: truth.len(),
        acep_matches: ours.len(),
        common_matches: common,
        ecep_secs,
        acep_secs,
        ecep_throughput,
        acep_throughput,
        throughput_gain,
        recall,
        precision,
        f1,
        fn_percent: if truth.is_empty() {
            0.0
        } else {
            100.0 * (truth.len() - common) as f64 / truth.len() as f64
        },
        filtering_ratio: acep.filtering_ratio,
        ecep_partials: ecep_stats.partial_matches_created,
        acep_partials: acep.extractor_stats.partial_matches_created,
    }
}

/// End-to-end comparison: run ECEP and a DLACEP pipeline on the same prefix.
pub fn compare<F: Filter>(
    pattern: &Pattern,
    events: &[PrimitiveEvent],
    dlacep: &Dlacep<F>,
) -> ComparisonReport {
    let (ecep_matches, ecep_time, ecep_stats) = run_ecep(pattern, events);
    let report = dlacep.run(events);
    compare_runs(events.len(), &ecep_matches, ecep_time, &ecep_stats, &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::OracleFilter;
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_events::{EventStream, TypeId, WindowSpec};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);

    fn pattern(w: u64) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(w),
        )
    }

    fn stream(n: usize) -> EventStream {
        let mut s = EventStream::new();
        for i in 0..n {
            let t = match i % 11 {
                2 => A,
                7 => B,
                _ => C,
            };
            s.push(t, i as u64, vec![0.0]);
        }
        s
    }

    #[test]
    fn oracle_comparison_has_perfect_quality() {
        let p = pattern(8);
        let s = stream(300);
        let dl = Dlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
        let r = compare(&p, s.events(), &dl);
        assert!(r.ecep_matches > 0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.f1, 1.0);
        assert_eq!(r.fn_percent, 0.0);
        assert_eq!(r.common_matches, r.ecep_matches);
    }

    #[test]
    fn report_counts_partials_on_both_sides() {
        let p = pattern(8);
        let s = stream(300);
        let dl = Dlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
        let r = compare(&p, s.events(), &dl);
        // The filtered stream is much smaller; so is the partial count.
        assert!(r.acep_partials <= r.ecep_partials);
        assert!(r.filtering_ratio > 0.5);
    }

    fn synthetic_acep(
        matches: Vec<Match>,
        filter_time: Duration,
        cep_time: Duration,
    ) -> DlacepReport {
        DlacepReport {
            per_pattern: vec![matches],
            events_total: 10,
            events_relayed: 0,
            filter_time,
            cep_time,
            filtering_ratio: 1.0,
            extractor_stats: EngineStats::default(),
            filter_faults: 0,
            pool: None,
            obs: None,
        }
    }

    #[test]
    fn both_match_sets_empty_is_perfect_not_nan() {
        let acep = synthetic_acep(Vec::new(), Duration::ZERO, Duration::ZERO);
        let r = compare_runs(10, &[], Duration::ZERO, &EngineStats::default(), &acep);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.f1, 1.0);
        assert_eq!(r.fn_percent, 0.0);
        assert_eq!(r.throughput_gain, 1.0);
        assert!(!r.throughput_gain.is_nan());
    }

    #[test]
    fn disjoint_match_sets_give_zero_f1_not_nan() {
        let m1 = Match::from_bindings(vec![("a".into(), vec![EventId(1), EventId(2)])]);
        let m2 = Match::from_bindings(vec![("a".into(), vec![EventId(3), EventId(4)])]);
        let acep = synthetic_acep(vec![m2], Duration::from_millis(1), Duration::from_millis(1));
        let r = compare_runs(
            10,
            &[m1],
            Duration::from_millis(1),
            &EngineStats::default(),
            &acep,
        );
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.precision, 0.0);
        assert_eq!(r.f1, 0.0);
        assert_eq!(r.fn_percent, 100.0);
    }

    #[test]
    fn instantaneous_acep_gives_infinite_gain_not_nan() {
        let acep = synthetic_acep(Vec::new(), Duration::ZERO, Duration::ZERO);
        let r = compare_runs(
            10,
            &[],
            Duration::from_millis(5),
            &EngineStats::default(),
            &acep,
        );
        assert!(r.throughput_gain.is_infinite() && r.throughput_gain > 0.0);
        assert!(!r.throughput_gain.is_nan());
    }

    #[test]
    fn gain_is_wall_time_ratio() {
        let acep = synthetic_acep(
            Vec::new(),
            Duration::from_millis(1),
            Duration::from_millis(1),
        );
        let r = compare_runs(
            10,
            &[],
            Duration::from_millis(6),
            &EngineStats::default(),
            &acep,
        );
        assert!((r.throughput_gain - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_truth_gives_perfect_recall() {
        let p = pattern(2); // adjacent A,B never happen in this stream
        let mut s = EventStream::new();
        for i in 0..50 {
            s.push(C, i, vec![0.0]);
        }
        let dl = Dlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
        let r = compare(&p, s.events(), &dl);
        assert_eq!(r.ecep_matches, 0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.fn_percent, 0.0);
    }
}
