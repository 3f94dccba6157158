//! Exact order statistics over raw samples. No buckets: every quantile is
//! computed from the sorted sample itself.

use serde_json::Value;

/// Quantile `q` in `[0, 1]` of an ascending-sorted sample, linearly
/// interpolated between the two nearest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, quartiles, median absolute deviation, extremes and count of one
/// timing — what every reported timing carries besides its headline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let mid = quantile_sorted(&s, 0.5);
        let dev: Vec<f64> = s.iter().map(|x| (x - mid).abs()).collect();
        Summary {
            n: s.len(),
            median: mid,
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            mad: median(&dev),
            min: s[0],
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median: the run-to-run spread
    /// `compare` and `repeat` hold against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::Map(vec![
            ("n".into(), Value::UInt(self.n as u64)),
            ("median".into(), Value::Float(self.median)),
            ("q1".into(), Value::Float(self.q1)),
            ("q3".into(), Value::Float(self.q3)),
            ("mad".into(), Value::Float(self.mad)),
            ("min".into(), Value::Float(self.min)),
            ("max".into(), Value::Float(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn summary_is_order_independent_and_exact() {
        let a = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((a.n, a.median, a.q1, a.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(a.mad, 1.0);
        assert_eq!((a.min, a.max), (1.0, 5.0));
        assert!((a.spread() - 2.0 / 3.0).abs() < 1e-12);
    }
}
