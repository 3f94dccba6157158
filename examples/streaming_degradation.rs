//! Streaming runtime under fire: feed `StreamingDlacep` event-by-event,
//! inject filter faults and out-of-order arrivals, and watch the runtime
//! degrade gracefully to exact CEP instead of crashing. The chaos run is
//! observed through a dedicated `dlacep-obs` registry: everything printed
//! about it comes out of the metrics snapshot and the structured journal,
//! not hand-picked report fields.
//!
//! ```bash
//! cargo run --release --example streaming_degradation
//! ```

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::{ChaosFault, ChaosFilter, GuardConfig};
use dlacep::events::{EventStream, OutOfOrderPolicy, TypeId, WindowSpec};
use dlacep::obs::Registry;
use std::sync::Arc;

/// SEQ(A, B) WITHIN 4 over types 0/1 with a filler type 2.
fn seq_ab() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(4),
    )
}

fn stream(n: usize) -> EventStream {
    let mut s = EventStream::new();
    for i in 0..n {
        let t = match i % 7 {
            2 => 0,
            5 => 1,
            _ => 2,
        };
        s.push(TypeId(t), i as u64, vec![i as f64]);
    }
    s
}

fn main() {
    let pattern = seq_ab();
    let live = stream(400);

    // Ground truth: the batch pipeline with an oracle filter.
    let batch = Dlacep::new(pattern.clone(), OracleFilter::new(pattern.clone()))
        .expect("paper-default assembler config is valid")
        .run(live.events());
    println!("batch oracle matches          : {}", batch.matches().len());

    // 1. Healthy streaming run — must agree with the batch pipeline.
    let mut rt = StreamingDlacep::new(pattern.clone(), OracleFilter::new(pattern.clone()))
        .expect("pattern compiles");
    for ev in live.events() {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .expect("monotone feed never errors");
    }
    let healthy = rt.finish();
    println!(
        "streaming healthy matches     : {} (mode {:?}, {} windows)",
        healthy.matches.len(),
        healthy.final_mode,
        healthy.windows_evaluated
    );

    // 2. Chaos storm: the filter panics on every third window and returns
    // wrong-length marks on every fifth. The guard trips the breaker and the
    // runtime fails open to exact CEP — recall survives.
    let chaotic = ChaosFilter::new(OracleFilter::new(pattern.clone()))
        .fault_every(3, ChaosFault::Panic)
        .fault_every(5, ChaosFault::WrongLength);
    let config = RuntimeConfig {
        guard: GuardConfig {
            fault_threshold: 2,
            cooldown_windows: 4,
            ..GuardConfig::default()
        },
        ..RuntimeConfig::default()
    };
    // Observe this runtime through its own registry so the snapshot below
    // covers exactly this run.
    let mut rt = StreamingDlacep::builder(pattern.clone(), chaotic)
        .config(config)
        .obs(Arc::new(Registry::enabled()))
        .build()
        .expect("pattern compiles");
    for ev in live.events() {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
    }
    let stormy = rt.finish();
    println!(
        "streaming under chaos matches : {} (mode {:?})",
        stormy.matches.len(),
        stormy.final_mode
    );
    let snap = stormy.obs.as_ref().expect("registry is enabled");
    println!("  metrics snapshot:");
    for (name, value) in &snap.counters {
        println!("    {name:<28} {value}");
    }
    println!(
        "  journal ({} entries, showing mode/breaker):",
        snap.journal.entries.len()
    );
    for entry in &snap.journal.entries {
        if entry.kind == "mode" || entry.kind == "breaker" {
            let fields: Vec<String> = entry
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "    [{:>4}] {:<8} {}",
                entry.seq,
                entry.kind,
                fields.join(" ")
            );
        }
    }
    assert_eq!(stormy.matches.len(), batch.matches().len());

    // 3. Out-of-order feed under the Drop policy: timestamp regressions are
    // shed instead of panicking the stream.
    let mut rt = StreamingDlacep::builder(pattern.clone(), OracleFilter::new(pattern.clone()))
        .config(RuntimeConfig {
            ooo_policy: OutOfOrderPolicy::Drop,
            ..RuntimeConfig::default()
        })
        .build()
        .expect("pattern compiles");
    for ev in live.events() {
        let ts = if ev.id.0 % 11 == 7 {
            ev.ts.0.saturating_sub(3)
        } else {
            ev.ts.0
        };
        rt.ingest(ev.type_id, ts, ev.attrs.clone()).unwrap();
    }
    let ooo = rt.finish();
    println!(
        "out-of-order feed             : {} offered, {} admitted, {} dropped, {} matches",
        ooo.events_offered,
        ooo.events_admitted,
        ooo.events_dropped,
        ooo.matches.len()
    );

    // 4. Reject policy: a timestamp regression surfaces as a typed error,
    // and the runtime stays usable afterwards.
    let mut rt = StreamingDlacep::new(pattern.clone(), OracleFilter::new(pattern.clone()))
        .expect("pattern compiles");
    rt.ingest(TypeId(0), 10, vec![0.0]).unwrap();
    match rt.ingest(TypeId(1), 3, vec![0.0]) {
        Err(e) => println!("reject policy                 : {e}"),
        Ok(_) => unreachable!("regression must be rejected"),
    }
    rt.ingest(TypeId(1), 11, vec![0.0])
        .expect("still usable after a rejected event");

    // 5. Partial-match budget: an A-burst opens far more partial sequences
    // than the cap; the extractor sheds the oldest and stays bounded.
    let burst = Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(64),
    );
    let mut rt = StreamingDlacep::builder(burst.clone(), OracleFilter::new(burst))
        .config(RuntimeConfig {
            max_partials: Some(4),
            ..RuntimeConfig::default()
        })
        .build()
        .expect("pattern compiles");
    for i in 0..200u64 {
        let t = if i % 10 == 9 { TypeId(1) } else { TypeId(0) };
        rt.ingest(t, i, vec![0.0]).unwrap();
        assert!(rt.stored_partials() <= 4);
    }
    let budgeted = rt.finish();
    println!(
        "budgeted run                  : {} matches, {} partials shed (cap 4)",
        budgeted.matches.len(),
        budgeted.extractor_stats.partials_shed
    );
}
