//! What the benchmark measures, by name: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables; a self-test holds the two equal,
//! and a run refuses to print a result that is missing a metric listed here
//! or carries one that is not.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists: which layers do its work, and which
    /// optimisations it is there to show or to show unmoved.
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "stock_int8",
        why: "batch Dlacep::run with the trained int8 event-net on Q_A1(j=4,k=2): assemble/embed/mark do most of the work, CEP little; its recall is the product's real quality",
    },
    WorkloadSpec {
        name: "stock_exact",
        why: "exact NfaEngine on heavy-partials Q_A1(j=4,k=10): the paper's baseline and the degraded path; CEP does all the work, so a mark optimisation must show no change",
    },
    WorkloadSpec {
        name: "multiquery16",
        why: "16 Table-1 patterns through Dlacep::multi with a passthrough filter: cep::rewrite and cep::share do most of the work; the sharing item claims against it",
    },
    WorkloadSpec {
        name: "serve_closed",
        why: "full product path: 4-shard int8 fleet behind WireServer on loopback, one WireClient sending 512 Ingest + Flush in a closed loop; capacity of wire bytes in to matches counted",
    },
    WorkloadSpec {
        name: "serve_open",
        why: "same server, ResilientClient, open loop at a fixed 3k ev/s in 50 ms ticks timed from each tick's due time: barrier cost, sync cadence and checkpoint pauses show as latency",
    },
    WorkloadSpec {
        name: "serve_frontdoor",
        why: "serve_closed with a passthrough filter and a cheap 2-step SEQ over rare types: wire decode, routing, WAL, checkpoints and per-event allocation do the work; must not move with stock_*",
    },
    WorkloadSpec {
        name: "fleet_recover",
        why: "the dur layer read back: a 4-shard fleet ingests at default cadence, crashes, and recover() is timed; checkpointing or syncing less to speed serve_* must show its price here",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees, on every workload. `op` is the
/// workload's own operation: one run over the input (batch workloads), one
/// 512-Ingest + Flush round trip (closed loops), one tick from its due
/// time to the Summary covering it (open loop), one `recover()` call.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "events/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("recall", "ratio", Better::Higher, 0.02),
    e2e("precision", "ratio", Better::Higher, 0.005),
    e2e("ok_share", "ratio", Better::Higher, 0.001),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// One traced pass replays the workload's own input through every layer,
/// one layer at a time. Layer = module of the repository.
pub const PER_LAYER: &[MetricSpec] = &[
    // serve::wire / events::codec
    layer("wire.encode_ns_per_event", "ns", Lower),
    layer("wire.decode_ns_per_event", "ns", Lower),
    layer("wire.bytes_per_event", "bytes", Lower),
    layer("wire.decode_allocs_per_event", "count", Lower),
    // events::key + serve::hash
    layer("route.ns_per_event", "ns", Lower),
    layer("route.keys", "count", Higher),
    layer("route.shard_skew", "ratio", Lower),
    // dur::wal
    layer("wal.append_ns_per_event", "ns", Lower),
    layer("wal.sync_ns_per_call", "ns", Lower),
    layer("wal.bytes_per_event", "bytes", Lower),
    layer("wal.syncs_per_kevent", "count", Lower),
    layer("wal.append_allocs_per_event", "count", Lower),
    layer("wal.dirstore_sync_ns_per_call", "ns", Lower),
    // dur::checkpoint + core::durable
    layer("ckpt.encode_ns", "ns", Lower),
    layer("ckpt.decode_ns", "ns", Lower),
    layer("ckpt.bytes", "bytes", Lower),
    layer("ckpt.per_kevent", "count", Lower),
    // serve::fleet recovery
    layer("recover.total_ms", "ms", Lower),
    layer("recover.ckpt_load_ns", "ns", Lower),
    layer("recover.replay_ns_per_event", "ns", Lower),
    layer("recover.events_replayed", "count", Lower),
    // core::assembler
    layer("assemble.ns_per_event", "ns", Lower),
    layer("assemble.windows", "count", Lower),
    layer("assemble.infer_factor", "ratio", Lower),
    // core::embed
    layer("embed.ns_per_event", "ns", Lower),
    layer("embed.allocs_per_event", "count", Lower),
    // core::filter / core::quantized + nn::quant / nn::lstm / nn::crf
    layer("mark.ns_per_event", "ns", Lower),
    layer("mark.ns_per_window", "ns", Lower),
    layer("mark.allocs_per_event", "count", Lower),
    layer("mark.marked_share", "ratio", Lower),
    layer("mark.agree_share", "ratio", Higher),
    layer("mark.f32_ns_per_event", "ns", Lower),
    layer("nn.encoder_ns_per_event", "ns", Lower),
    layer("nn.head_ns_per_event", "ns", Lower),
    layer("nn.macs_per_event", "count", Lower),
    // core::pipeline / core::runtime relay
    layer("relay.ns_per_event", "ns", Lower),
    layer("relay.relayed_share", "ratio", Lower),
    layer("relay.dup_share", "ratio", Lower),
    // cep::nfa
    layer("cep.ns_per_event", "ns", Lower),
    layer("cep.ns_per_relayed_event", "ns", Lower),
    layer("cep.partials_per_event", "count", Lower),
    layer("cep.peak_partials", "count", Lower),
    layer("cep.cond_evals_per_event", "count", Lower),
    layer("cep.partials_per_match", "ratio", Lower),
    layer("cep.allocs_per_event", "count", Lower),
    layer("cep.matches", "count", Higher),
    // cep::rewrite + cep::share
    layer("share.compile_ms", "ms", Lower),
    layer("share.units", "count", Lower),
    layer("share.branches_merged", "count", Higher),
    layer("share.engine_steps", "count", Lower),
    layer("share.separate_engine_steps", "count", Lower),
    layer("share.attribute_ns_per_match", "ns", Lower),
    layer("share.speedup_vs_separate", "ratio", Higher),
    // serve::server / channel / client
    layer("serve.flush_rtt_idle_ms", "ms", Lower),
    layer("serve.conn_setup_ms", "ms", Lower),
    layer("serve.client_send_ns_per_event", "ns", Lower),
    layer("serve.closed_ns_per_event", "ns", Lower),
    layer("serve.flush_p50_ms", "ms", Lower),
    layer("serve.flush_p90_ms", "ms", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.overloaded_replies", "count", Lower),
    layer("serve.resyncs", "count", Lower),
    layer("serve.inproc_events_per_s", "events/s", Higher),
    // the benchmark's own open-loop generator
    layer("gen.lag_p90_ms", "ms", Lower),
    layer("gen.lag_end_ms", "ms", Lower),
    // par
    layer("par.events_per_s_2t", "events/s", Higher),
    layer("par.speedup_2t", "ratio", Higher),
    layer("par.jobs", "count", Lower),
    layer("par.steals", "count", Lower),
    // obs
    layer("obs.overhead_share", "ratio", Lower),
    layer("obs.scrape_ms", "ms", Lower),
    // reference: exact CEP on the workload's own input
    layer("ref.exact_events_per_s", "events/s", Higher),
    layer("ref.gain_vs_exact", "ratio", Higher),
    // setup
    layer("setup.datagen_ms", "ms", Lower),
    layer("setup.train_s", "s", Lower),
    layer("setup.train_epochs", "count", Lower),
    layer("setup.quantize_ms", "ms", Lower),
    layer("setup.server_start_ms", "ms", Lower),
    // trace
    layer("trace.coverage", "ratio", Higher),
    layer("trace.unaccounted_ns_per_event", "ns", Lower),
    layer("trace.allocs_per_event", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    /// Every name, unit, direction, bound and reason in `BENCHMARK.json` is
    /// the one in the tables above, in the same order, and vice versa.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Value, k: &str| field(v, k).as_str().unwrap().to_string();

        let listed: Vec<(String, String)> = field(&doc, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let metric = |m: &Value| {
            (
                s(m, "name"),
                s(m, "unit"),
                s(m, "better"),
                m.as_map()
                    .unwrap()
                    .iter()
                    .find(|(k, _)| k == "bound")
                    .map(|(_, b)| b.as_f64().unwrap()),
            )
        };
        let ours = |specs: &[MetricSpec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        let listed_e2e: Vec<_> = field(&doc, "end_to_end")
            .as_seq()
            .unwrap()
            .iter()
            .map(metric)
            .collect();
        assert_eq!(listed_e2e, ours(END_TO_END));
        let listed_layers: Vec<_> = field(&doc, "per_layer")
            .as_seq()
            .unwrap()
            .iter()
            .map(metric)
            .collect();
        assert_eq!(listed_layers, ours(PER_LAYER));

        let paths: Vec<&str> = field(&doc, "paths")
            .as_seq()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let secs = field(&doc, "run_seconds").as_u64().unwrap();
        assert!((1..=60).contains(&secs));
    }
}
