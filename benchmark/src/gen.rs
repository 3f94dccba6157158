//! The benchmark's own input generator: a Zipf-ticker stock stream with
//! log-normal volumes, built from `--seed` alone. The program under test
//! receives only the generated events (converted in `sut::to_events`).

/// splitmix64: small, seedable, and owned by the benchmark so inputs do
/// not change when the repository's vendored `rand` does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::EPSILON);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Distinct tickers in the stream; ticker `i` has Zipf rank `i + 1`, so the
/// paper's `T_k` (top-k most prevalent identifiers) is type ids `0..k`.
pub const TICKERS: usize = 128;
const ZIPF_EXPONENT: f64 = 1.0;
const VOLUME_SIGMA: f64 = 0.35;
const MARKET_SEED: u64 = 0x00D1_ACE9;

/// One generated event before it is handed to the program: ticker and
/// volume. Arrival id and timestamp are the position in the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Raw {
    pub ticker: u32,
    pub vol: f64,
}

/// `n` events of the stock stream for `seed`. `stream` separates the
/// independent streams one workload needs (measured input, training
/// history) without reusing a seed.
pub fn stock_stream(seed: u64, stream: u64, n: usize) -> Vec<Raw> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let weights: Vec<f64> = (1..=TICKERS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    // Per-ticker base log-volume: different stocks trade on different
    // scales. The market is the same for every seed — only the sequence of
    // trades changes — so how often a band condition holds, and with it
    // match density, memory and throughput, is a property of the workload
    // and not of the seed.
    let mut market = Rng::new(MARKET_SEED);
    let base: Vec<f64> = (0..TICKERS).map(|_| market.normal() * 0.5).collect();
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let t = cdf.partition_point(|&c| c < u).min(TICKERS - 1);
            Raw {
                ticker: t as u32,
                vol: (base[t] + rng.normal() * VOLUME_SIGMA).exp(),
            }
        })
        .collect()
}

/// FNV-1a over the exact bits of the input, printed with every result so
/// two runs can be shown to have measured the same events.
pub fn input_hash(events: &[Raw]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in events {
        eat(&e.ticker.to_le_bytes());
        eat(&e.vol.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        let a = stock_stream(7, 0, 5_000);
        let b = stock_stream(7, 0, 5_000);
        let c = stock_stream(8, 0, 5_000);
        let d = stock_stream(7, 1, 5_000);
        assert_eq!(a, b);
        assert_eq!(input_hash(&a), input_hash(&b));
        assert_ne!(input_hash(&a), input_hash(&c));
        assert_ne!(input_hash(&a), input_hash(&d));
    }

    #[test]
    fn low_ticker_ids_are_the_prevalent_ones() {
        let s = stock_stream(7, 0, 50_000);
        let count = |t: u32| s.iter().filter(|e| e.ticker == t).count();
        assert!(count(0) > count(1) && count(1) > count(10) && count(10) > count(100));
        assert!(s.iter().all(|e| e.vol > 0.0 && e.vol.is_finite()));
    }
}
