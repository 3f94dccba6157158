//! Merged fleet-level reporting: per-key runtime reports rolled up into
//! per-shard summaries, fleet totals, deterministic comparison views, and
//! a single labeled Prometheus scrape.

use crate::fleet::ShardStats;
use dlacep_cep::Match;
use dlacep_core::RuntimeReport;
use dlacep_obs::{render_prometheus_sharded, DeterministicView, MetricsSnapshot};
use std::collections::BTreeMap;

/// One key runtime's final report plus its fleet placement.
#[derive(Debug)]
pub struct KeyReport {
    /// Partition key.
    pub key: u64,
    /// Shard that hosted the key.
    pub shard: u32,
    /// The runtime's own report.
    pub report: RuntimeReport,
}

/// One shard's rollup.
#[derive(Clone, Copy, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub index: u32,
    /// Keys hosted.
    pub keys: u64,
    /// Matches across the shard's keys.
    pub matches: u64,
    /// Durability/routing counters.
    pub stats: ShardStats,
}

/// Fleet-wide counter roll-up (sums over every key runtime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetTotals {
    /// Events offered to the fleet front door (including re-feeds).
    pub offered: u64,
    /// Matches across all keys.
    pub matches: u64,
    /// Runtime-level offered/admitted/dropped/clamped/relayed sums.
    pub events_offered: u64,
    pub events_admitted: u64,
    pub events_dropped: u64,
    pub events_clamped: u64,
    pub events_relayed: u64,
    /// Windows evaluated / degraded across all keys.
    pub windows_evaluated: u64,
    pub windows_degraded: u64,
    /// Retrained models accepted across all keys.
    pub models_accepted: u64,
    /// Re-offered events dropped as already applied.
    pub refeed_skipped: u64,
}

/// The merged result of [`crate::ShardedDlacep::finish`].
#[derive(Debug)]
pub struct FleetReport {
    /// Per-key reports, sorted by key (so equal fleets compare equal
    /// regardless of shard layout).
    pub keys: Vec<KeyReport>,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Fleet-wide sums.
    pub totals: FleetTotals,
}

impl FleetReport {
    pub(crate) fn new(keys: Vec<KeyReport>, shards: Vec<ShardSummary>, offered: u64) -> Self {
        let mut totals = FleetTotals {
            offered,
            ..FleetTotals::default()
        };
        for kr in &keys {
            let r = &kr.report;
            totals.matches += r.matches.len() as u64;
            totals.events_offered += r.events_offered as u64;
            totals.events_admitted += r.events_admitted as u64;
            totals.events_dropped += r.events_dropped as u64;
            totals.events_clamped += r.events_clamped as u64;
            totals.events_relayed += r.events_relayed as u64;
            totals.windows_evaluated += r.windows_evaluated as u64;
            totals.windows_degraded += r.windows_degraded as u64;
            totals.models_accepted += r.retrain.as_ref().map_or(0, |rt| rt.models_accepted);
        }
        for s in &shards {
            totals.refeed_skipped += s.stats.refeed_skipped;
        }
        FleetReport {
            keys,
            shards,
            totals,
        }
    }

    /// Every match in the fleet, in (key, per-key emission) order — a
    /// canonical order independent of shard layout.
    pub fn matches(&self) -> Vec<(u64, &Match)> {
        let mut out = Vec::with_capacity(self.totals.matches as usize);
        for kr in &self.keys {
            for m in &kr.report.matches {
                out.push((kr.key, m));
            }
        }
        out
    }

    /// Per-key deterministic metric views (requires the fleet to have run
    /// with `obs: true`; keys whose runtime had no registry are absent).
    /// Pool metrics are excluded — which thread marks which chunk is the
    /// one intentionally nondeterministic dimension.
    pub fn deterministic_views(&self) -> BTreeMap<u64, DeterministicView> {
        self.keys
            .iter()
            .filter_map(|kr| {
                kr.report
                    .obs
                    .as_ref()
                    .map(|s| (kr.key, s.deterministic_view(&["pool."])))
            })
            .collect()
    }

    /// One Prometheus scrape for the whole fleet: each metric gets a single
    /// `# TYPE` header followed by one `{shard="i"}`-labeled series per
    /// shard. Key-runtime metrics are summed into their shard's snapshot
    /// (counters and histogram buckets add; gauges add, which suits the
    /// occupancy-style gauges the runtime exports); `serve_*` counters from
    /// [`ShardStats`] ride along in the same snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut per_shard: Vec<MetricsSnapshot> = self
            .shards
            .iter()
            .map(|s| {
                let mut snap = MetricsSnapshot::default();
                let c = &mut snap.counters;
                c.insert("serve_events_routed".into(), s.stats.events_routed);
                c.insert("serve_wal_appends".into(), s.stats.wal_appends);
                c.insert("serve_wal_syncs".into(), s.stats.wal_syncs);
                c.insert("serve_checkpoints".into(), s.stats.checkpoints);
                c.insert("serve_refeed_skipped".into(), s.stats.refeed_skipped);
                c.insert("serve_keys".into(), s.keys);
                snap
            })
            .collect();
        for kr in &self.keys {
            let Some(obs) = &kr.report.obs else { continue };
            merge_into(&mut per_shard[kr.shard as usize], obs);
        }
        let labeled: Vec<(String, MetricsSnapshot)> = per_shard
            .into_iter()
            .enumerate()
            .map(|(i, snap)| (i.to_string(), snap))
            .collect();
        render_prometheus_sharded("shard", &labeled)
    }
}

/// Add `src`'s metrics into `dst`: counters, gauges, and histogram
/// count/sum/buckets all sum (bucket lists merge by bucket index). The
/// journal is not merged — it is per-key diagnostic state, exposed through
/// [`FleetReport::deterministic_views`] instead.
pub(crate) fn merge_into(dst: &mut MetricsSnapshot, src: &MetricsSnapshot) {
    for (name, v) in &src.counters {
        *dst.counters.entry(name.clone()).or_insert(0) += v;
    }
    for (name, v) in &src.gauges {
        *dst.gauges.entry(name.clone()).or_insert(0.0) += v;
    }
    for (name, h) in &src.histograms {
        let entry = dst.histograms.entry(name.clone()).or_default();
        entry.count += h.count;
        entry.sum += h.sum;
        let mut merged: BTreeMap<u32, u64> = entry.buckets.iter().copied().collect();
        for (idx, n) in &h.buckets {
            *merged.entry(*idx).or_insert(0) += n;
        }
        entry.buckets = merged.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlacep_obs::HistogramSnapshot;

    #[test]
    fn merge_sums_counters_and_buckets() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 2);
        a.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 3,
                sum: 30,
                buckets: vec![(0, 1), (2, 2)],
                exemplar: None,
            },
        );
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 5);
        b.counters.insert("y".into(), 1);
        b.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum: 7,
                buckets: vec![(2, 1)],
                exemplar: None,
            },
        );
        merge_into(&mut a, &b);
        assert_eq!(a.counters["x"], 7);
        assert_eq!(a.counters["y"], 1);
        let h = &a.histograms["h"];
        assert_eq!((h.count, h.sum), (4, 37));
        assert_eq!(h.buckets, vec![(0, 1), (2, 3)]);
    }
}
