//! A four-shard keyed ingestion fleet behind the in-process channel
//! front end.
//!
//! `ShardedDlacep` hash-partitions the inbound stream by key across four
//! independent durable shards — each with its own WAL, checkpoints, and
//! per-key runtimes — while `spawn` puts a bounded-channel pump in front so
//! producers get backpressure instead of unbounded queueing. The example
//! drives the stock workload through a `ServeHandle`, takes a mid-stream
//! durability barrier, scrapes the live HTTP telemetry endpoints
//! (`/metrics`, `/healthz`, `/traces`) while ingest is still in flight,
//! then drains the pump and prints the merged fleet report plus the single
//! Prometheus scrape covering every shard.
//!
//! The example reads two settings of its own from the environment (see
//! README) and passes them to the library as arguments:
//!
//! ```bash
//! cargo run --release --example sharded_server
//! # trace 1 in 3 events (default 10), serve live telemetry on a fixed port:
//! DLACEP_TRACE_SAMPLE=3 DLACEP_TELE_ADDR=127.0.0.1:9900 cargo run ...
//! ```
//!
//! (Without `DLACEP_TELE_ADDR` the example binds an ephemeral telemetry
//! port; it self-scrapes either way, so the endpoints are always
//! exercised.)

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::OracleFilter;
use dlacep::data::StockConfig;
use dlacep::dur::MemStore;
use dlacep::events::{KeyExtractor, TypeId, WindowSpec};
use dlacep::serve::{spawn, FleetConfig, ShardedDlacep, TeleServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Plain one-shot HTTP GET against the telemetry listener.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("telemetry listener is up");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: dlacep\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(response)
}

/// SEQ(A, B, C) WITHIN 12 — matches inside the first type group.
fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
            PatternExpr::event(TypeSet::single(TypeId(2)), "c"),
        ]),
        vec![],
        WindowSpec::Count(12),
    )
}

/// `name`'s value, if set and not blank.
fn setting(name: &str) -> Option<String> {
    std::env::var(name)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

fn main() {
    // Trace 1 in 10 events unless DLACEP_TRACE_SAMPLE says otherwise, so
    // the /traces endpoint has content to show.
    let trace_sample_every = setting("DLACEP_TRACE_SAMPLE").map_or(10, |v| {
        v.parse()
            .expect("DLACEP_TRACE_SAMPLE must be a non-negative integer")
    });
    let shards = FleetConfig::default().shards;
    let (_, stream) = StockConfig {
        num_events: 5_000,
        ..Default::default()
    }
    .generate();
    let events = stream.events().to_vec();

    let cfg = FleetConfig {
        shards,
        // Consecutive type ids share a key, so the three-step SEQ stays
        // matchable within one key's windows.
        key_extractor: KeyExtractor::ByTypeGroup(4),
        obs: true,
        sync_every_events: 64,
        checkpoint_every_events: 1_024,
        trace_sample_every,
        ..FleetConfig::default()
    };
    let pat = pattern();
    let fleet = ShardedDlacep::create(
        pattern(),
        cfg,
        Arc::new(move || OracleFilter::new(pat.clone())),
        Arc::new(|| None),
        (0..shards).map(|_| MemStore::new()).collect(),
    )
    .expect("fresh fleet");

    // Bounded channel: 256 in-flight commands of backpressure.
    let (handle, pump) = spawn(fleet, 256);
    // Live telemetry: DLACEP_TELE_ADDR or an ephemeral port.
    let tele_addr = setting("DLACEP_TELE_ADDR").unwrap_or_else(|| "127.0.0.1:0".into());
    let tele = TeleServer::bind(tele_addr.as_str(), handle.clone()).expect("bind telemetry");
    println!(
        "telemetry: http://{}/metrics (+ /healthz /traces /journal)",
        tele.local_addr()
    );

    let mid = events.len() / 2;
    for ev in &events[..mid] {
        handle
            .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .expect("pump alive");
    }
    // A durability barrier mid-stream: every shard's WAL is fsynced before
    // this returns, so everything ingested so far survives a crash.
    handle.sync().expect("sync barrier");
    let stats = handle.stats().expect("stats barrier");
    println!(
        "mid-stream: {} events across {} keys, {} matches so far",
        stats.offered, stats.keys, stats.matches
    );

    // Scrape the live endpoints while the fleet is mid-stream.
    let metrics = scrape(tele.local_addr(), "/metrics");
    let healthz = scrape(tele.local_addr(), "/healthz");
    let traces = scrape(tele.local_addr(), "/traces");
    println!("\n== live /metrics (mid-stream, first 12 lines) ==");
    for line in metrics.lines().take(12) {
        println!("{line}");
    }
    println!("== live /healthz ==\n{healthz}");
    println!(
        "== live /traces == {} bytes of Chrome trace JSON",
        traces.len()
    );
    assert!(
        metrics.contains("serve_events_routed_total"),
        "live scrape must carry per-shard serve counters"
    );
    assert!(
        metrics.contains("dlacep_serve_queue_depth"),
        "live scrape must carry the backpressure gauge"
    );
    assert!(
        healthz.contains("\"status\":\"ok\""),
        "healthz must report the fleet alive"
    );
    assert!(
        traces.contains("\"traceEvents\""),
        "traces must be Chrome trace JSON"
    );

    for ev in &events[mid..] {
        handle
            .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .expect("pump alive");
    }
    tele.shutdown();
    drop(handle); // let the pump drain and exit
    let report = pump.finish().expect("fleet finish");

    println!("\n== merged fleet report ({shards} shards) ==");
    for shard in &report.shards {
        println!(
            "shard {}: {} keys, {} matches, {} wal appends, {} checkpoints",
            shard.index,
            shard.keys,
            shard.matches,
            shard.stats.wal_appends,
            shard.stats.checkpoints
        );
    }
    println!(
        "totals: {} offered, {} matches across {} keys",
        report.totals.offered,
        report.totals.matches,
        report.keys.len()
    );
    let first = report
        .matches()
        .first()
        .map(|(k, m)| format!("key {k}: {m:?}"))
        .unwrap_or_else(|| "none".into());
    println!("first match: {first}");

    println!("\n== prometheus scrape (one endpoint, all shards) ==");
    let scrape = report.render_prometheus();
    for line in scrape.lines().take(24) {
        println!("{line}");
    }
    let total_lines = scrape.lines().count();
    println!("... ({total_lines} lines total)");

    assert!(report.totals.matches > 0, "workload must match");
    assert!(report.keys.len() > 1, "workload must span keys");
}
