//! The hardened TCP front door speaking the `DMSV` wire protocol.
//!
//! [`WireServer::run`] accepts connections until its [`ShutdownHandle`]
//! is signalled, serving each connection on its own thread as a FIFO of
//! frames feeding the shared [`ServeHandle`]. Ordering *across*
//! connections is whatever the channel interleaving produces — keyed
//! determinism holds per connection, which is the deployment shape the
//! tests pin (one producer per key group).
//!
//! ## Connection lifecycle
//!
//! Every accepted socket gets read/write timeouts
//! ([`ServerConfig::read_timeout`]); the read timeout doubles as the poll
//! tick on which a connection notices shutdown. A connection that stays
//! silent past [`ServerConfig::idle_timeout`] is *reaped* — told why with
//! a best-effort [`WireMsg::Error`], then closed. The
//! [`ServerConfig::max_conns`] cap refuses the (N+1)th connection with a
//! typed [`WireMsg::Error`] instead of letting accept backlog grow
//! unbounded.
//!
//! ## Overload shedding
//!
//! When the pump's `queue_depth` crosses
//! [`ServerConfig::shed_high_water`], a connection stops forwarding
//! ingests and replies [`WireMsg::Overloaded`] instead of blocking the
//! socket thread on the bounded channel. Shedding is *sticky per
//! connection*: once one event is shed, every later ingest on that
//! connection is shed too, so the events the fleet applied are always an
//! exact prefix of what the client sent — the invariant the
//! `resume_seq` re-feed protocol needs. The client re-syncs with
//! [`WireMsg::Hello`], which (once the queue has drained below half the
//! high-water mark) clears the shed state and reports the position to
//! re-feed from.
//!
//! ## Graceful shutdown
//!
//! [`ShutdownHandle::signal`] stops the accept loop, lets in-flight
//! connections drain until they go quiet (or
//! [`ServerConfig::drain_deadline`] passes, after which sockets are
//! force-closed — crash-only beyond the deadline), joins every worker,
//! then forces a final `sync()` + `checkpoint()` barrier so nothing
//! acknowledged is lost. [`ShutdownHandle::signal_hard`] is the
//! crash-only variant: no drain, no final barrier — what a `kill -9`
//! would leave behind, for recovery drills.
//!
//! A malformed frame gets a best-effort [`WireMsg::Error`] reply and
//! closes that connection; the fleet and the other connections are
//! unaffected. A fleet error (the pump is poisoned) is likewise
//! diagnosed to the peer before the connection drops, never silently.

use crate::channel::{ServeError, ServeHandle, TeleKind};
use crate::wire::{write_msg, FrameReader, WireError, WireMsg, MAX_WIRE_PAYLOAD};
use dlacep_obs::{FieldValue, Registry};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-door tuning, passed to [`WireServer::bind_with`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Connections served concurrently; the (N+1)th is refused with a
    /// typed [`WireMsg::Error`]. Default 64.
    pub max_conns: usize,
    /// Socket read/write timeout; also the poll tick on which workers
    /// notice shutdown and accumulate idleness. Default 500 ms.
    pub read_timeout: Duration,
    /// A connection silent for this long is reaped. Default 30 s.
    pub idle_timeout: Duration,
    /// How long graceful shutdown waits for in-flight connections to
    /// drain before force-closing their sockets. Default 5 s.
    pub drain_deadline: Duration,
    /// Pump queue depth at which ingests are shed with
    /// [`WireMsg::Overloaded`] instead of blocking. Keep this *below* the
    /// pump channel capacity or the gate never fires before the channel
    /// blocks. `0` disables shedding (pure backpressure). Default 1024.
    pub shed_high_water: u64,
    /// Back-off hint carried in [`WireMsg::Overloaded`]. Default 50 ms.
    pub shed_retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 64,
            read_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            shed_high_water: 1024,
            shed_retry_after_ms: 50,
        }
    }
}

// ---------------------------------------------------------------------------
// Shutdown plumbing
// ---------------------------------------------------------------------------

struct ShutdownState {
    stop: AtomicBool,
    hard: AtomicBool,
    addr: SocketAddr,
}

/// Cloneable signal that stops a running [`WireServer`]. Obtained from
/// [`WireServer::shutdown_handle`] (or [`RunningServer::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ShutdownState>,
}

impl ShutdownHandle {
    /// Begin graceful shutdown: stop accepting, drain in-flight
    /// connections under the deadline, run the final sync + checkpoint
    /// barrier. Idempotent.
    pub fn signal(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.poke();
    }

    /// Crash-only shutdown: stop accepting, force-close every connection
    /// immediately, skip the final durability barrier. What survives is
    /// exactly what the fleet's own cadence already made durable — the
    /// recovery drill path.
    pub fn signal_hard(&self) {
        self.state.hard.store(true, Ordering::SeqCst);
        self.signal();
    }

    /// Whether shutdown has been requested.
    pub fn is_signalled(&self) -> bool {
        self.state.stop.load(Ordering::SeqCst)
    }

    fn is_hard(&self) -> bool {
        self.state.hard.load(Ordering::SeqCst)
    }

    /// Wake the accept loop so it observes the stop flag: accept(2) has no
    /// timeout, so we connect-and-drop a throwaway socket to it.
    fn poke(&self) {
        if let Ok(stream) = TcpStream::connect(self.state.addr) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection table (drain bookkeeping)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ConnTable {
    inner: Mutex<HashMap<u64, TcpStream>>,
    emptied: Condvar,
}

impl ConnTable {
    fn active(&self) -> usize {
        self.inner.lock().expect("conn table").len()
    }

    fn insert(&self, id: u64, stream: TcpStream) {
        self.inner.lock().expect("conn table").insert(id, stream);
    }

    fn remove(&self, id: u64) {
        let mut t = self.inner.lock().expect("conn table");
        t.remove(&id);
        if t.is_empty() {
            self.emptied.notify_all();
        }
    }

    /// Wait until no connections remain or `deadline` passes. Returns
    /// whether the table emptied in time.
    fn wait_empty_until(&self, deadline: Instant) -> bool {
        let mut t = self.inner.lock().expect("conn table");
        while !t.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, timeout) = self.emptied.wait_timeout(t, left).expect("conn table wait");
            t = guard;
            if timeout.timed_out() && !t.is_empty() {
                return false;
            }
        }
        true
    }

    /// Force-close every remaining socket (both directions), unblocking
    /// its worker. Returns how many were cut.
    fn force_close_all(&self) -> u64 {
        let t = self.inner.lock().expect("conn table");
        for stream in t.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        t.len() as u64
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// What a completed [`WireServer::run`] observed.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Connections accepted and served.
    pub conns_accepted: u64,
    /// Connections refused at the [`ServerConfig::max_conns`] cap.
    pub conns_refused: u64,
    /// In-flight connections still open when the drain deadline passed
    /// (force-closed), or cut immediately by a hard shutdown.
    pub conns_forced: u64,
    /// Whether every connection drained before the deadline (vacuously
    /// true for a hard shutdown, which does not drain).
    pub drained: bool,
    /// Whether this was a hard (crash-only) shutdown.
    pub hard: bool,
    /// Error from the final sync + checkpoint barrier, if it failed (or
    /// `None` for a hard shutdown, which skips the barrier).
    pub final_barrier_error: Option<String>,
}

/// Accept loop over a bound listener, forwarding frames into a fleet's
/// [`ServeHandle`]. See the [module docs](self) for the lifecycle,
/// shedding, and shutdown model.
pub struct WireServer {
    listener: TcpListener,
    handle: ServeHandle,
    cfg: ServerConfig,
    shutdown: ShutdownHandle,
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) with
    /// [`ServerConfig::default`].
    pub fn bind(addr: impl ToSocketAddrs, handle: ServeHandle) -> io::Result<WireServer> {
        Self::bind_with(addr, handle, ServerConfig::default())
    }

    /// Bind with an explicit configuration.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        handle: ServeHandle,
        cfg: ServerConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(WireServer {
            listener,
            handle,
            cfg,
            shutdown: ShutdownHandle {
                state: Arc::new(ShutdownState {
                    stop: AtomicBool::new(false),
                    hard: AtomicBool::new(false),
                    addr: local,
                }),
            },
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server (cloneable; wire it to your signal
    /// handler of choice).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serve on a background thread, returning a [`RunningServer`] that
    /// owns the join handle.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_handle();
        let thread = std::thread::spawn(move || self.run());
        Ok(RunningServer {
            addr,
            shutdown,
            thread,
        })
    }

    /// Accept and serve connections until the [`ShutdownHandle`] is
    /// signalled, then drain, join, and run the final durability barrier.
    /// Blocks the calling thread for the server's whole life.
    pub fn run(self) -> io::Result<ServerReport> {
        let WireServer {
            listener,
            handle,
            cfg,
            shutdown,
        } = self;
        let obs = Arc::clone(handle.obs());
        // Register every front-door series up front so scrapes expose a
        // zero-valued counter instead of a missing one.
        for name in [
            "serve_conn_accepted",
            "serve_conn_refused",
            "serve_conn_closed",
            "serve_conn_errors",
            "serve_conn_reaped",
            "serve_conn_forced",
            "serve_shed_enters",
            "serve_shed_events",
            "serve_tele_truncated",
        ] {
            obs.counter(name).add(0);
        }
        let conns = Arc::new(ConnTable::default());
        let next_id = AtomicU64::new(0);
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut accepted = 0u64;
        let mut refused = 0u64;

        for conn in listener.incoming() {
            if shutdown.is_signalled() {
                break; // `conn` is the shutdown poke (or a late arrival): drop it.
            }
            let Ok(stream) = conn else { continue };
            if conns.active() >= cfg.max_conns {
                refused += 1;
                obs.counter("serve_conn_refused").inc();
                obs.record(
                    "serve_conn",
                    &[("event", FieldValue::Str("refused".into()))],
                );
                refuse_conn(stream, &cfg);
                continue;
            }
            accepted += 1;
            obs.counter("serve_conn_accepted").inc();
            obs.record(
                "serve_conn",
                &[("event", FieldValue::Str("accepted".into()))],
            );
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                conns.insert(id, clone);
            }
            let worker_handle = handle.clone();
            let worker_conns = Arc::clone(&conns);
            let worker_shutdown = shutdown.clone();
            let worker_obs = Arc::clone(&obs);
            workers.push(std::thread::spawn(move || {
                let outcome =
                    serve_conn(stream, &worker_handle, &cfg, &worker_shutdown, &worker_obs);
                worker_conns.remove(id);
                match outcome {
                    Ok(()) => worker_obs.counter("serve_conn_closed").inc(),
                    Err(_) => {
                        worker_obs.counter("serve_conn_errors").inc();
                        worker_obs
                            .record("serve_conn", &[("event", FieldValue::Str("error".into()))]);
                    }
                }
            }));
            workers.retain(|w| !w.is_finished());
        }
        drop(listener); // stop accepting before draining

        let hard = shutdown.is_hard();
        obs.record(
            "serve_shutdown",
            &[
                ("phase", FieldValue::Str("signalled".into())),
                ("hard", FieldValue::Bool(hard)),
                ("active_conns", FieldValue::U64(conns.active() as u64)),
            ],
        );
        let (drained, forced) = if hard {
            (true, conns.force_close_all())
        } else {
            let deadline = Instant::now() + cfg.drain_deadline;
            let drained = conns.wait_empty_until(deadline);
            let forced = if drained { 0 } else { conns.force_close_all() };
            (drained, forced)
        };
        if forced > 0 {
            obs.counter("serve_conn_forced").add(forced);
        }
        for w in workers {
            let _ = w.join();
        }

        // The final barrier: everything any connection acknowledged is
        // fsynced and checkpointed before run() returns. Skipped on hard
        // shutdown — that path simulates a crash.
        let final_barrier_error = if hard {
            None
        } else {
            handle
                .sync()
                .and_then(|()| handle.checkpoint())
                .err()
                .map(|e| e.to_string())
        };
        obs.record(
            "serve_shutdown",
            &[
                ("phase", FieldValue::Str("complete".into())),
                ("drained", FieldValue::Bool(drained)),
                ("forced_conns", FieldValue::U64(forced)),
                (
                    "barrier_ok",
                    FieldValue::Bool(!hard && final_barrier_error.is_none()),
                ),
            ],
        );
        Ok(ServerReport {
            conns_accepted: accepted,
            conns_refused: refused,
            conns_forced: forced,
            drained,
            hard,
            final_barrier_error,
        })
    }
}

/// A [`WireServer`] running on its own thread.
pub struct RunningServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<ServerReport>>,
}

impl RunningServer {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown signal for this server.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Graceful stop: signal, then join, returning the server's report.
    pub fn stop(self) -> io::Result<ServerReport> {
        self.shutdown.signal();
        self.join()
    }

    /// Crash-only stop: cut every connection, skip the final barrier.
    pub fn stop_hard(self) -> io::Result<ServerReport> {
        self.shutdown.signal_hard();
        self.join()
    }

    /// Join without signalling (something else owns the shutdown handle).
    pub fn join(self) -> io::Result<ServerReport> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Best-effort typed refusal for a connection over the cap.
fn refuse_conn(stream: TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(cfg.read_timeout));
    let mut w = BufWriter::new(stream);
    let _ = write_msg(
        &mut w,
        &WireMsg::Error {
            message: "server at max connections; retry later".into(),
        },
    );
    let _ = w.flush();
}

fn serve_err(e: ServeError) -> WireError {
    WireError::Protocol(e.to_string())
}

/// Map a wire telemetry endpoint name to its pump-side document kind.
/// The names mirror the HTTP scrape listener's paths.
pub(crate) fn tele_kind(endpoint: &str) -> Option<TeleKind> {
    match endpoint.trim_start_matches('/') {
        "metrics" => Some(TeleKind::Metrics),
        "healthz" => Some(TeleKind::Healthz),
        "traces" => Some(TeleKind::Traces),
        "journal" => Some(TeleKind::Journal),
        _ => None,
    }
}

/// The marker appended to a clipped telemetry body — grep for it before
/// trusting a `TeleBody` to be the whole document.
pub const TELE_TRUNCATION_MARKER: &str = "# DLACEP-TELE-TRUNCATED";

/// Truncate `body` so the whole `TeleBody` frame stays under the payload
/// cap (UTF-8 boundary-safe; headroom covers the endpoint + frame
/// fields). A clipped body ends with an explicit
/// [`TELE_TRUNCATION_MARKER`] line carrying the dropped byte count, so it
/// cannot be mistaken for a complete document. Returns the body and how
/// many bytes were dropped (0 = intact).
fn clamp_tele_body(mut body: String) -> (String, u64) {
    let cap = (MAX_WIRE_PAYLOAD as usize).saturating_sub(4096);
    if body.len() <= cap {
        return (body, 0);
    }
    let mut cut = cap.saturating_sub(64); // room for the marker line
    while cut > 0 && !body.is_char_boundary(cut) {
        cut -= 1;
    }
    let dropped = (body.len() - cut) as u64;
    body.truncate(cut);
    body.push_str(&format!(
        "\n{TELE_TRUNCATION_MARKER} dropped_bytes={dropped}\n"
    ));
    (body, dropped)
}

/// Whether an i/o error is a socket-timeout poll tick rather than a real
/// transport failure.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_conn(
    stream: TcpStream,
    handle: &ServeHandle,
    cfg: &ServerConfig,
    shutdown: &ShutdownHandle,
    obs: &Registry,
) -> Result<(), WireError> {
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.read_timeout))?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Sticky shed state: once one ingest is shed, everything after it on
    // this connection is shed until a Hello re-sync — the applied events
    // must stay an exact prefix of the client's send order.
    let mut shedding = false;
    let mut shed_replies = 0u64;
    let mut last_activity = Instant::now();
    loop {
        let buffered_before = reader.buffered_len();
        match reader.read_msg() {
            Ok(None) => return Ok(()), // clean close
            Ok(Some(msg)) => {
                last_activity = Instant::now();
                match msg {
                    WireMsg::Ingest { type_id, ts, attrs } => {
                        if !shedding
                            && cfg.shed_high_water > 0
                            && handle.queue_depth() >= cfg.shed_high_water
                        {
                            shedding = true;
                            shed_replies = 0;
                            obs.counter("serve_shed_enters").inc();
                            obs.record(
                                "serve_shed",
                                &[
                                    ("event", FieldValue::Str("enter".into())),
                                    ("queue_depth", FieldValue::U64(handle.queue_depth())),
                                ],
                            );
                        }
                        if shedding {
                            obs.counter("serve_shed_events").inc();
                            // Reply on the first shed and then sparsely: a
                            // streaming client that never reads would
                            // otherwise fill its receive buffer and block
                            // the writer here.
                            if shed_replies.is_multiple_of(64) {
                                write_msg(
                                    &mut writer,
                                    &WireMsg::Overloaded {
                                        retry_after_ms: cfg.shed_retry_after_ms,
                                    },
                                )?;
                                writer.flush()?;
                            }
                            shed_replies += 1;
                            continue;
                        }
                        if let Err(e) = handle.ingest(type_id, ts, attrs) {
                            // Diagnose before dropping the connection — a
                            // peer must never see a silent close while its
                            // ingests are being rejected.
                            let msg = e.to_string();
                            let _ = write_msg(&mut writer, &WireMsg::Error { message: msg });
                            let _ = writer.flush();
                            return Err(serve_err(e));
                        }
                    }
                    WireMsg::Flush => {
                        let reply = if shedding {
                            WireMsg::Overloaded {
                                retry_after_ms: cfg.shed_retry_after_ms,
                            }
                        } else {
                            match handle.sync().and_then(|()| handle.stats()) {
                                Ok(stats) => WireMsg::Summary {
                                    offered: stats.offered,
                                    matches: stats.matches,
                                    keys: stats.keys,
                                    refeed_skipped: stats.refeed_skipped,
                                    prune_to: stats.prune_horizon,
                                },
                                Err(e) => WireMsg::Error {
                                    message: e.to_string(),
                                },
                            }
                        };
                        write_msg(&mut writer, &reply)?;
                        writer.flush()?;
                    }
                    WireMsg::Hello => {
                        // Clear shed state only once the queue has drained
                        // below half the high-water mark; otherwise the
                        // client would immediately shed again. A `Hello` is
                        // always answered with `Resume` (or `Error`) — never
                        // `Overloaded` — so a client can skip stale shed
                        // replies until the `Resume` arrives. If shedding
                        // persists, the refed events are shed again and the
                        // next `Flush` tells the client to keep backing off.
                        if shedding && handle.queue_depth() < cfg.shed_high_water.div_ceil(2) {
                            shedding = false;
                            obs.record("serve_shed", &[("event", FieldValue::Str("exit".into()))]);
                        }
                        // stats() is a pump barrier: every ingest this
                        // connection already forwarded is applied before
                        // the position is read, so resume_seq is exact.
                        let reply = match handle.stats() {
                            Ok(stats) => WireMsg::Resume {
                                resume_seq: stats.offered + 1,
                            },
                            Err(e) => WireMsg::Error {
                                message: e.to_string(),
                            },
                        };
                        write_msg(&mut writer, &reply)?;
                        writer.flush()?;
                    }
                    WireMsg::Tele { endpoint } => {
                        let reply = match tele_kind(&endpoint) {
                            Some(kind) => match handle.telemetry(kind) {
                                Ok(body) => {
                                    let (body, dropped) = clamp_tele_body(body);
                                    if dropped > 0 {
                                        obs.counter("serve_tele_truncated").inc();
                                    }
                                    WireMsg::TeleBody { endpoint, body }
                                }
                                Err(e) => WireMsg::Error {
                                    message: e.to_string(),
                                },
                            },
                            None => WireMsg::Error {
                                message: format!("unknown telemetry endpoint: {endpoint}"),
                            },
                        };
                        write_msg(&mut writer, &reply)?;
                        writer.flush()?;
                    }
                    other => {
                        let reply = WireMsg::Error {
                            message: format!("unexpected client message: {other:?}"),
                        };
                        write_msg(&mut writer, &reply)?;
                        writer.flush()?;
                        return Err(WireError::Protocol("unexpected client message".into()));
                    }
                }
            }
            Err(WireError::Io(ref e)) if is_timeout(e) => {
                if reader.buffered_len() > buffered_before {
                    // Bytes arrived mid-frame: the peer is slow, not idle.
                    last_activity = Instant::now();
                    continue;
                }
                if shutdown.is_signalled() && reader.buffered_len() == 0 {
                    // Draining and the connection is quiet on a frame
                    // boundary: this stream is drained.
                    return Ok(());
                }
                if last_activity.elapsed() >= cfg.idle_timeout {
                    obs.counter("serve_conn_reaped").inc();
                    obs.record("serve_conn", &[("event", FieldValue::Str("reaped".into()))]);
                    let _ = write_msg(
                        &mut writer,
                        &WireMsg::Error {
                            message: format!(
                                "idle connection reaped after {} ms",
                                cfg.idle_timeout.as_millis()
                            ),
                        },
                    );
                    let _ = writer.flush();
                    return Ok(());
                }
            }
            Err(e) => {
                // Best-effort diagnosis to the peer, then drop the
                // connection: after a framing error the stream position is
                // unknowable.
                let _ = write_msg(
                    &mut writer,
                    &WireMsg::Error {
                        message: e.to_string(),
                    },
                );
                let _ = writer.flush();
                return Err(e);
            }
        }
    }
}

/// Blocking client for the wire protocol. One shot, no retry — the
/// resilient wrapper is [`crate::ResilientClient`].
pub struct WireClient {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl WireClient {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an already-connected stream (e.g. one opened with a connect
    /// timeout).
    pub fn from_stream(stream: TcpStream) -> io::Result<WireClient> {
        Ok(WireClient {
            reader: FrameReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Set read/write timeouts on the underlying socket.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Send one raw protocol message (buffered until [`flush_wire`]).
    ///
    /// [`flush_wire`]: Self::flush_wire
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), WireError> {
        write_msg(&mut self.writer, msg)
    }

    /// Flush buffered frames to the socket.
    pub fn flush_wire(&mut self) -> Result<(), WireError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next message (`None` = clean close).
    pub fn recv(&mut self) -> Result<Option<WireMsg>, WireError> {
        self.reader.read_msg()
    }

    /// Offer one event (buffered; framed on the wire, flushed with
    /// [`flush`](Self::flush)).
    pub fn ingest(
        &mut self,
        type_id: dlacep_events::TypeId,
        ts: u64,
        attrs: Vec<f64>,
    ) -> Result<(), WireError> {
        self.send(&WireMsg::Ingest { type_id, ts, attrs })
    }

    /// Flush buffered ingests, ask the server for a durability barrier,
    /// and return its [`WireMsg::Summary`] counters as
    /// `(offered, matches, keys, refeed_skipped)`.
    pub fn flush(&mut self) -> Result<(u64, u64, u64, u64), WireError> {
        self.send(&WireMsg::Flush)?;
        self.flush_wire()?;
        match self.recv()? {
            Some(WireMsg::Summary {
                offered,
                matches,
                keys,
                refeed_skipped,
                ..
            }) => Ok((offered, matches, keys, refeed_skipped)),
            Some(WireMsg::Overloaded { retry_after_ms }) => Err(WireError::Protocol(format!(
                "server overloaded; retry after {retry_after_ms} ms"
            ))),
            Some(WireMsg::Error { message }) => Err(WireError::Protocol(message)),
            Some(other) => Err(WireError::Protocol(format!(
                "expected Summary, got {other:?}"
            ))),
            None => Err(WireError::Protocol("server closed before Summary".into())),
        }
    }

    /// Handshake: ask the server which fleet-global sequence number to
    /// feed from. The server always answers a `Hello` with `Resume` (or
    /// `Error`), so any [`WireMsg::Overloaded`] frames read here are stale
    /// replies to previously shed ingests and are skipped (bounded, to
    /// keep a misbehaving peer from pinning the thread).
    pub fn hello(&mut self) -> Result<u64, WireError> {
        self.send(&WireMsg::Hello)?;
        self.flush_wire()?;
        for _ in 0..4096 {
            match self.recv()? {
                Some(WireMsg::Resume { resume_seq }) => return Ok(resume_seq),
                Some(WireMsg::Overloaded { .. }) => continue, // stale shed reply
                Some(WireMsg::Error { message }) => return Err(WireError::Protocol(message)),
                Some(other) => {
                    return Err(WireError::Protocol(format!(
                        "expected Resume, got {other:?}"
                    )))
                }
                None => return Err(WireError::Protocol("server closed before Resume".into())),
            }
        }
        Err(WireError::Protocol(
            "no Resume after 4096 frames; peer is flooding".into(),
        ))
    }

    /// Ask the server for one live telemetry document (`"metrics"`,
    /// `"healthz"`, `"traces"`, or `"journal"`) and return its body.
    pub fn telemetry(&mut self, endpoint: &str) -> Result<String, WireError> {
        self.send(&WireMsg::Tele {
            endpoint: endpoint.to_string(),
        })?;
        self.flush_wire()?;
        match self.recv()? {
            Some(WireMsg::TeleBody { body, .. }) => Ok(body),
            Some(WireMsg::Error { message }) => Err(WireError::Protocol(message)),
            Some(other) => Err(WireError::Protocol(format!(
                "expected TeleBody, got {other:?}"
            ))),
            None => Err(WireError::Protocol("server closed before TeleBody".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_leaves_small_bodies_alone() {
        let (body, dropped) = clamp_tele_body("hello".into());
        assert_eq!(body, "hello");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn clamp_marks_truncated_bodies() {
        let big = "x".repeat(MAX_WIRE_PAYLOAD as usize + 100);
        let original_len = big.len();
        let (body, dropped) = clamp_tele_body(big);
        assert!(dropped > 0);
        assert!(body.len() <= (MAX_WIRE_PAYLOAD as usize).saturating_sub(4096));
        let marker_at = body
            .find(TELE_TRUNCATION_MARKER)
            .expect("clipped body must carry the truncation marker");
        assert!(body[marker_at..].contains(&format!("dropped_bytes={dropped}")));
        let kept = body[..marker_at].trim_end().len();
        assert_eq!(kept as u64 + dropped, original_len as u64);
    }

    #[test]
    fn clamp_respects_utf8_boundaries() {
        // 4-byte scalars straddling the cut point must not split.
        let big = "𝄞".repeat((MAX_WIRE_PAYLOAD as usize / 4) + 100);
        let (body, dropped) = clamp_tele_body(big);
        assert!(dropped > 0);
        assert!(body.contains(TELE_TRUNCATION_MARKER));
        // String integrity: constructing the assert above would have
        // panicked on an invalid boundary; also re-validate explicitly.
        assert!(std::str::from_utf8(body.as_bytes()).is_ok());
    }
}
