//! Front-door hardening battery: poisoned-pump truthfulness, admission
//! control, overload shedding, error diagnosis to the peer, idle reaping,
//! and the drain-deadline force-close path.

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::OracleFilter;
use dlacep_data::StockConfig;
use dlacep_dur::{FailingStore, MemStore, Store};
use dlacep_events::{EventStream, KeyExtractor, TypeId, WindowSpec};
use dlacep_serve::{
    spawn, ClientConfig, FleetConfig, ResilientClient, ServerConfig, ShardedDlacep, WireClient,
    WireMsg, WireServer,
};
use std::io;
use std::sync::Arc;
use std::time::Duration;

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

fn stream(n: usize) -> EventStream {
    let (_, stream) = StockConfig {
        num_events: n,
        ..Default::default()
    }
    .generate();
    stream
}

fn fleet_config(shards: u32) -> FleetConfig {
    FleetConfig {
        shards,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        sync_every_events: 16,
        checkpoint_every_events: 96,
        ..FleetConfig::default()
    }
}

fn make_fleet<S: Store>(shards: u32, stores: Vec<S>) -> ShardedDlacep<OracleFilter, S> {
    let pat = pattern();
    ShardedDlacep::create(
        pattern(),
        fleet_config(shards),
        Arc::new(move || OracleFilter::new(pat.clone())),
        Arc::new(|| None),
        stores,
    )
    .unwrap()
}

fn test_server_cfg() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(25),
        drain_deadline: Duration::from_millis(1500),
        ..ServerConfig::default()
    }
}

/// Satellite (a) regression: once the pump records a fleet error, every
/// later barrier and ingest must report it — a flush may never return a
/// clean summary over silently dropped events.
#[test]
fn poisoned_pump_fails_barriers_and_ingests() {
    use dlacep_dur::Schedule;
    // The crash tick is measured past fleet creation, so the store dies
    // mid-ingest inside the pump thread.
    let stores = vec![FailingStore::new(
        MemStore::new(),
        Schedule::never().at(crash_tick()),
    )];
    let fleet = make_fleet(1, stores);
    let (handle, pump) = spawn(fleet, 64);

    let stream = stream(400);
    for ev in stream.events() {
        // Ingest is fire-and-forget; after the poison lands it starts
        // failing fast, which is itself part of the contract.
        if handle
            .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .is_err()
        {
            break;
        }
    }
    // The barrier must surface the stored error, not report success.
    let sync_err = handle.sync().expect_err("sync must surface the poison");
    assert!(
        sync_err.to_string().contains("injected crash"),
        "sync error must carry the original failure: {sync_err}"
    );
    assert!(handle.stats().is_err(), "stats must surface the poison");
    assert!(
        handle.checkpoint().is_err(),
        "checkpoint must surface the poison"
    );
    assert!(
        handle
            .ingest(TypeId(0), 1, vec![1.0])
            .expect_err("ingest after poison must fail")
            .to_string()
            .contains("injected crash"),
        "ingest must fail fast with the stored error"
    );
    assert!(
        handle.poisoned().is_some(),
        "poison must be observable on the handle"
    );
    drop(handle);
    let (_, first_err) = pump.into_fleet().unwrap();
    assert!(
        first_err.is_some(),
        "the pump must hand back the first error on teardown"
    );
}

/// Satellite (a), wire view: a client flushing into a poisoned pump gets
/// a typed Error reply, never a clean Summary.
#[test]
fn poisoned_pump_is_reported_over_the_wire() {
    use dlacep_dur::Schedule;
    let stores = vec![FailingStore::new(
        MemStore::new(),
        Schedule::never().at(crash_tick()),
    )];
    let fleet = make_fleet(1, stores);
    let (handle, pump) = spawn(fleet, 64);
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), test_server_cfg())
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = WireClient::connect(server.addr()).unwrap();
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    let stream = stream(400);
    let mut flush_err = None;
    for chunk in stream.events().chunks(50) {
        for ev in chunk {
            if client
                .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
                .is_err()
            {
                break;
            }
        }
        match client.flush() {
            Ok(_) => {}
            Err(e) => {
                flush_err = Some(e);
                break;
            }
        }
    }
    let err = flush_err.expect("a flush over the poisoned pump must fail");
    assert!(
        err.to_string().contains("injected crash"),
        "the wire error must carry the fleet failure: {err}"
    );
    drop(client);
    server.stop().unwrap();
    drop(handle);
    let (_, first_err) = pump.into_fleet().unwrap();
    assert!(first_err.is_some());
}

/// Satellite (b): an ingest the fleet rejects is diagnosed to the peer
/// with a typed Error before the connection drops — never a silent close.
#[test]
fn rejected_ingest_is_diagnosed_before_disconnect() {
    use dlacep_dur::Schedule;
    let stores = vec![FailingStore::new(
        MemStore::new(),
        Schedule::never().at(crash_tick()),
    )];
    let fleet = make_fleet(1, stores);
    let (handle, pump) = spawn(fleet, 64);
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), test_server_cfg())
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = WireClient::connect(server.addr()).unwrap();
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    let stream = stream(400);
    // Stream events until the server kills the connection, then read
    // whatever it said on the way out.
    for ev in stream.events() {
        if client
            .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .is_err()
        {
            break;
        }
        if client.flush_wire().is_err() {
            break;
        }
    }
    let mut saw_error = false;
    loop {
        match client.recv() {
            Ok(Some(WireMsg::Error { message })) => {
                assert!(
                    message.contains("injected crash"),
                    "diagnosis must carry the cause: {message}"
                );
                saw_error = true;
                break;
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        }
    }
    assert!(
        saw_error,
        "the peer must receive a typed Error, not a silent close"
    );
    server.stop().unwrap();
    drop(handle);
    let _ = pump.into_fleet();
}

/// Admission control: the (N+1)th connection is refused with a typed
/// Error naming the limit.
#[test]
fn max_conns_refuses_with_typed_error() {
    let fleet = make_fleet(1, vec![MemStore::new()]);
    let (handle, pump) = spawn(fleet, 64);
    let cfg = ServerConfig {
        max_conns: 1,
        ..test_server_cfg()
    };
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), cfg)
        .unwrap()
        .spawn()
        .unwrap();

    let mut first = WireClient::connect(server.addr()).unwrap();
    first.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    // A round trip guarantees the server registered the connection.
    first.flush().unwrap();

    let mut second = WireClient::connect(server.addr()).unwrap();
    second.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    match second.recv() {
        Ok(Some(WireMsg::Error { message })) => {
            assert!(
                message.contains("max connections"),
                "refusal must name the limit: {message}"
            );
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    drop(first);
    drop(second);
    let report = server.stop().unwrap();
    assert_eq!(report.conns_accepted, 1);
    assert_eq!(report.conns_refused, 1);
    drop(handle);
    pump.finish().unwrap();
}

/// A store that applies events slowly, so the pump queue backs up and
/// the server's overload shedding fires deterministically.
#[derive(Debug)]
struct SlowStore {
    inner: MemStore,
    delay: Duration,
}

impl SlowStore {
    fn new(delay: Duration) -> Self {
        SlowStore {
            inner: MemStore::new(),
            delay,
        }
    }
}

impl Store for SlowStore {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn len(&self, name: &str) -> io::Result<u64> {
        self.inner.len(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// Tentpole overload criterion: when queue depth crosses the high-water
/// mark the server replies `Overloaded` instead of blocking, and the
/// resilient client still converges to every event applied.
#[test]
fn overload_sheds_and_client_converges() {
    let fleet = make_fleet(1, vec![SlowStore::new(Duration::from_millis(2))]);
    let (handle, pump) = spawn(fleet, 64);
    let cfg = ServerConfig {
        shed_high_water: 16,
        shed_retry_after_ms: 5,
        ..test_server_cfg()
    };
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), cfg)
        .unwrap()
        .spawn()
        .unwrap();

    let client_cfg = ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_millis(2000),
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(40),
        max_retries: 120,
        jitter_seed: 7,
    };
    let mut client = ResilientClient::connect(server.addr().to_string(), client_cfg).unwrap();
    let stream = stream(300);
    for ev in stream.events() {
        client.ingest(ev.type_id, ev.ts.0, ev.attrs.clone());
    }
    let (offered, _, _, _) = client.flush().unwrap();
    assert_eq!(offered, 300, "every event must converge through the sheds");
    assert!(
        client.stats().overloaded_seen > 0,
        "the flood must have been shed at least once: {:?}",
        client.stats()
    );
    assert!(
        handle.obs().counter("serve_shed_events").get() > 0,
        "server must count shed ingests"
    );

    drop(client);
    server.stop().unwrap();
    drop(handle);
    let report = pump.finish().unwrap();
    assert_eq!(report.totals.offered, 300);
}

/// Idle connections are reaped after the idle timeout, with a diagnosis.
#[test]
fn idle_connection_is_reaped_with_diagnosis() {
    let fleet = make_fleet(1, vec![MemStore::new()]);
    let (handle, pump) = spawn(fleet, 64);
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(120),
        ..test_server_cfg()
    };
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), cfg)
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = WireClient::connect(server.addr()).unwrap();
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    client.flush().unwrap(); // prove liveness first
    match client.recv() {
        Ok(Some(WireMsg::Error { message })) => {
            assert!(
                message.contains("idle"),
                "reap diagnosis must say why: {message}"
            );
        }
        other => panic!("expected an idle-reap Error, got {other:?}"),
    }
    assert!(
        handle.obs().counter("serve_conn_reaped").get() > 0,
        "reap must be counted"
    );
    drop(client);
    server.stop().unwrap();
    drop(handle);
    pump.finish().unwrap();
}

/// A peer stuck mid-frame cannot hold up shutdown forever: the drain
/// deadline force-closes it and the report says so.
#[test]
fn stuck_partial_frame_is_force_closed_at_drain_deadline() {
    use std::io::Write as _;
    use std::net::TcpStream;

    let fleet = make_fleet(1, vec![MemStore::new()]);
    let (handle, pump) = spawn(fleet, 64);
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(20),
        drain_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), cfg)
        .unwrap()
        .spawn()
        .unwrap();

    // Handshake a healthy frame first so the worker is live, then send
    // half of a frame and stall.
    let mut healthy = WireClient::connect(server.addr()).unwrap();
    healthy
        .set_io_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    healthy.flush().unwrap();
    drop(healthy);

    let mut stuck = TcpStream::connect(server.addr()).unwrap();
    let frame = dlacep_serve::encode_msg(&WireMsg::Flush);
    stuck.write_all(&frame[..frame.len() / 2]).unwrap();
    stuck.flush().unwrap();
    std::thread::sleep(Duration::from_millis(60)); // let the bytes land

    let report = server.stop().unwrap();
    assert!(
        !report.drained,
        "a stuck mid-frame peer must not count as drained"
    );
    assert!(
        report.conns_forced >= 1,
        "the stuck peer must be force-closed: {report:?}"
    );
    assert!(
        report.final_barrier_error.is_none(),
        "the final barrier still runs after a forced drain"
    );
    drop(stuck);
    drop(handle);
    pump.finish().unwrap();
}

/// The serve-layer counters ride the fleet's metrics scrape, registered
/// eagerly so a quiet server still exposes zero-valued series.
#[test]
fn serve_counters_appear_in_wire_metrics() {
    let fleet = make_fleet(1, vec![MemStore::new()]);
    let (handle, pump) = spawn(fleet, 64);
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), test_server_cfg())
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = WireClient::connect(server.addr()).unwrap();
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    let body = client.telemetry("metrics").unwrap();
    for series in [
        "serve_conn_accepted_total",
        "serve_conn_refused_total",
        "serve_shed_events_total",
        "serve_tele_truncated_total",
    ] {
        assert!(
            body.contains(series),
            "metrics scrape must expose {series}:\n{body}"
        );
    }
    // The dispatched SIMD level is an info metric on the scrape and a
    // field of the liveness document.
    let level = dlacep_core::quantized::simd_level();
    assert!(["avx2", "sse2", "scalar"].contains(&level));
    assert!(
        body.contains(&format!("dlacep_nn_simd_level{{level=\"{level}\"}} 1")),
        "metrics scrape must say which kernel level runs:\n{body}"
    );
    let healthz = client.telemetry("healthz").unwrap();
    assert!(
        healthz.contains(&format!("\"simd_level\":\"{level}\"")),
        "healthz must say which kernel level runs: {healthz}"
    );
    drop(client);
    server.stop().unwrap();
    drop(handle);
    pump.finish().unwrap();
}

/// Fleet creation itself spends store ticks (WAL headers, first
/// checkpoint); measure them so the injected crash reliably lands
/// mid-ingest instead of mid-create.
fn crash_tick() -> u64 {
    use dlacep_dur::Schedule;
    let stores = vec![FailingStore::new(MemStore::new(), Schedule::never())];
    let fleet = make_fleet(1, stores);
    let spent = fleet
        .into_stores()
        .into_iter()
        .map(|s| s.ticks())
        .max()
        .unwrap_or(0);
    spent + 40
}
