//! The active-retrain workload shared by `crash_sweep.rs` and the
//! retrain-store fixtures of `checkpoint_v1_upgrade.rs`: a filter that goes
//! silent at event 36, and a trainer whose first attempt panics, whose
//! second returns a candidate the gate rejects, and whose third heals the
//! filter (drift at window 6, attempts at 7, 9 and 13).

#![allow(dead_code)] // each test crate uses its own subset

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::chaos::{out_of_order_timestamps, ChaosTrainer, TrainFault};
use dlacep_core::durable::DurConfig;
use dlacep_core::filter::{Filter, OracleFilter};
use dlacep_core::retrain::{ModelTrainer, RetrainConfig};
use dlacep_core::runtime::RuntimeConfig;
use dlacep_core::DriftConfig;
use dlacep_dur::WalConfig;
use dlacep_events::{AttrValue, KeyExtractor, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_serve::FleetConfig;

pub const A: TypeId = TypeId(0);
pub const B: TypeId = TypeId(1);

pub fn seq_ab(w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(A), "a"),
            PatternExpr::event(TypeSet::single(B), "b"),
        ]),
        vec![],
        WindowSpec::Count(w),
    )
}

pub type Offer = (TypeId, u64, Vec<AttrValue>);

pub fn offers(n: usize, disorder: f64, seed: u64) -> Vec<Offer> {
    let ts = out_of_order_timestamps(n, disorder, 3, seed);
    (0..n)
        .map(|i| {
            let t = match i % 4 {
                1 => A,
                3 => B,
                _ => TypeId(2),
            };
            (t, ts[i], vec![i as f64])
        })
        .collect()
}

pub fn dur_config() -> DurConfig {
    DurConfig {
        // Small segments and a short sync cadence: the sweep crosses many
        // rotations, fsync batches, checkpoints, and prunes.
        wal: WalConfig {
            segment_max_bytes: 384,
            sync_every: 4,
        },
        checkpoint_every_events: 12,
    }
}

/// Silently-dying filter keyed by window content (first event id), so a
/// recovered run re-draws the same drift the original saw.
pub enum SweepFilter {
    Broken {
        oracle: OracleFilter,
        silent_from: u64,
    },
    Healed(OracleFilter),
}

impl Filter for SweepFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        match self {
            Self::Broken {
                oracle,
                silent_from,
            } => {
                if window.first().is_some_and(|e| e.id.0 >= *silent_from) {
                    vec![false; window.len()]
                } else {
                    oracle.mark(window)
                }
            }
            Self::Healed(oracle) => oracle.mark(window),
        }
    }

    fn name(&self) -> &'static str {
        "sweep-heal"
    }
}

/// Deterministic healer with a one-byte model encoding: the checkpoint
/// redeploy path round-trips through it.
struct SweepTrainer {
    pattern: Pattern,
}

impl ModelTrainer<SweepFilter> for SweepTrainer {
    fn retrain(
        &self,
        pattern: &Pattern,
        _windows: &[Vec<PrimitiveEvent>],
        _attempt: u64,
    ) -> Result<SweepFilter, String> {
        Ok(SweepFilter::Healed(OracleFilter::new(pattern.clone())))
    }

    fn encode(&self, filter: &SweepFilter) -> Vec<u8> {
        match filter {
            SweepFilter::Broken { .. } => vec![0],
            SweepFilter::Healed(_) => vec![1],
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<SweepFilter, String> {
        match bytes {
            [1] => Ok(SweepFilter::Healed(OracleFilter::new(self.pattern.clone()))),
            // A Broken candidate can legitimately pass the gate on a key
            // whose windows hold no matches (nothing to recall, nothing
            // marked — the fleet sweep's quiet key); it must round-trip so
            // recovery can redeploy it.
            [0] => Ok(SweepFilter::Broken {
                oracle: OracleFilter::new(self.pattern.clone()),
                silent_from: 0,
            }),
            other => Err(format!("unknown model encoding: {other:?}")),
        }
    }
}

/// The filter every run starts with: healthy until event 36.
pub fn sweep_filter(pattern: &Pattern) -> SweepFilter {
    SweepFilter::Broken {
        oracle: OracleFilter::new(pattern.clone()),
        silent_from: 36,
    }
}

/// Attempt 0 panics, attempt 1 hands the gate a silent candidate, attempt
/// 2 heals.
pub fn sweep_trainer(pattern: &Pattern) -> Box<dyn ModelTrainer<SweepFilter>> {
    let flaky = pattern.clone();
    Box::new(
        ChaosTrainer::new(Box::new(SweepTrainer {
            pattern: pattern.clone(),
        }))
        .fault_at(0, TrainFault::Panic)
        .fault_at(1, TrainFault::Flaky)
        .flaky_candidates(move || SweepFilter::Broken {
            oracle: OracleFilter::new(flaky.clone()),
            silent_from: 0,
        }),
    )
}

fn drift() -> Option<DriftConfig> {
    // The first silent window trips the signal.
    Some(DriftConfig {
        baseline_rate: 0.5,
        tolerance: 0.8,
        alpha: 1.0,
        patience: 1,
    })
}

/// Scenario 3's runtime: drift at window 6, attempt 0 (panic) at 7,
/// attempt 1 (gate-rejected) at 9, attempt 2 validates and swaps at 13.
pub fn retrain_config() -> RuntimeConfig {
    RuntimeConfig {
        drift: drift(),
        retrain: Some(RetrainConfig {
            backoff_base_windows: 1,
            max_retries: 3,
            replay_windows: 16,
            holdout_every: 4,
            ..Default::default()
        }),
        ..Default::default()
    }
}

pub const FLEET_SHARDS: u32 = 2;

/// Key-0 traffic is exactly the scenario-3 stream (types 0..3, so key 0
/// under `ByTypeGroup(4)`), preserving its retrain trajectory event for
/// event; after every fourth key-0 event one key-1 event (types 4..7)
/// rides along on its own timeline.
pub fn fleet_offers() -> Vec<Offer> {
    let key0 = offers(120, 0.0, 7);
    let mut out = Vec::with_capacity(150);
    let mut j = 0u64;
    for (i, o) in key0.into_iter().enumerate() {
        out.push(o);
        if i % 4 == 3 {
            let t = match j % 4 {
                1 => TypeId(4),
                3 => TypeId(5),
                _ => TypeId(6),
            };
            out.push((t, j, vec![1_000.0 + j as f64]));
            j += 1;
        }
    }
    out
}

/// Scenario 3's runtime on a two-shard fleet.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: FLEET_SHARDS,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        runtime: RuntimeConfig {
            drift: drift(),
            retrain: Some(RetrainConfig {
                backoff_base_windows: 1,
                max_retries: 3,
                // Half the scenario-3 ring: the replay buffer is serialized
                // into every shard checkpoint, and checkpoint bytes are
                // durability ticks — i.e. sweep iterations.
                replay_windows: 8,
                holdout_every: 4,
                ..Default::default()
            }),
            ..Default::default()
        },
        wal: WalConfig {
            segment_max_bytes: 384,
            sync_every: 4,
        },
        sync_every_events: 16,
        // Coarser than scenario 3 (12): every fleet checkpoint writes a
        // full per-key state image on *each* shard, so the cadence sets the
        // sweep's tick count (and wall-clock) almost by itself. Four
        // checkpoints still straddle the whole retrain trajectory.
        checkpoint_every_events: 36,
        ..FleetConfig::default()
    }
}
