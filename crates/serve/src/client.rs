//! Reconnecting wire client with crash-recovery re-feed.
//!
//! [`ResilientClient`] wraps [`WireClient`] with the three behaviours a
//! long-lived producer needs against a server that restarts, sheds load,
//! or sits behind a flaky network:
//!
//! - **Timeouts + capped backoff.** Connects with a deadline, stamps
//!   read/write timeouts on the socket, and retries failed operations
//!   under capped exponential backoff with deterministic jitter (a seeded
//!   xorshift64 — no system clock, no system randomness — so a test run
//!   with a fixed [`ClientConfig::jitter_seed`] replays bit-identically).
//! - **Send buffer + resume re-feed.** Every offered event is stamped
//!   with the fleet-global sequence number `g` it will receive on the
//!   server (the client is the fleet's single producer, so its send order
//!   *is* the global order) and held in a buffer until a `Summary`'s
//!   `prune_to` horizon covers it (`g <= min(high_water)` — acked events
//!   above the horizon stay buffered, because a future recovery's
//!   `resume_seq` can reach back exactly that far and re-feeds must be
//!   positional). On reconnect — or after an `Overloaded` shed —
//!   the client sends [`WireMsg::Hello`], learns the server's
//!   `resume_seq`, and re-feeds every buffered event with `g >=
//!   resume_seq`. Events a shard already applied are dropped server-side
//!   as `refeed_skipped`, so ingestion stays exactly-once-observable
//!   across server restarts.
//! - **Overload etiquette.** An `Overloaded { retry_after_ms }` reply is
//!   honoured: the client backs off at least that long before the
//!   `Hello` re-sync, instead of hammering a shedding server.
//!
//! The buffer is unbounded by design: the producer owns durability of
//! unacked events, and callers that need bounds should `flush()`
//! periodically (a successful flush prunes everything acked).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use dlacep_events::TypeId;

use crate::server::WireClient;
use crate::wire::{WireError, WireMsg};

/// Tuning knobs for [`ResilientClient`]. All durations are wall-clock;
/// the jitter source is seeded and deterministic.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for each TCP connect attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout stamped on the connected socket.
    pub io_timeout: Duration,
    /// First backoff delay; doubles each consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling (the cap of the exponential).
    pub backoff_max: Duration,
    /// Consecutive failed attempts tolerated per operation before the
    /// operation surfaces [`ClientError::RetriesExhausted`].
    pub max_retries: u32,
    /// Seed for the deterministic jitter PRNG. Two clients with the same
    /// seed and the same failure sequence back off identically.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(2000),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_retries: 16,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a [`ResilientClient`] operation gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The configured address resolved to nothing.
    NoAddr(String),
    /// A wire/transport failure that is not retried (protocol violation).
    Wire(WireError),
    /// Every retry budgeted by [`ClientConfig::max_retries`] failed;
    /// `last` is the final attempt's rendered error. A server whose
    /// state was wiped underneath an established session surfaces here
    /// too: its summaries can never ack the buffered tail, so each flush
    /// retry reports how many events stayed buffered.
    RetriesExhausted { attempts: u32, last: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoAddr(addr) => write!(f, "client: no usable address in {addr:?}"),
            ClientError::Wire(e) => write!(f, "client: {e}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "client: gave up after {attempts} attempts; last: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Counters a [`ResilientClient`] keeps about its own resilience work.
/// All monotonic; read them after a run to see what the client survived.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful (re)connections, including the first.
    pub connects: u64,
    /// Connections declared dead after an i/o failure.
    pub conn_drops: u64,
    /// Backoff sleeps taken.
    pub backoffs: u64,
    /// `Overloaded` replies observed.
    pub overloaded_seen: u64,
    /// `Hello`/`Resume` re-sync handshakes completed.
    pub resyncs: u64,
    /// Buffered events re-fed after a resume.
    pub refed_events: u64,
    /// Events pruned from the buffer after a `Summary` ack.
    pub acked_events: u64,
}

/// One unacked event parked in the send buffer, stamped with the
/// fleet-global sequence number the server assigns it.
#[derive(Debug, Clone)]
struct Pending {
    g: u64,
    type_id: TypeId,
    ts: u64,
    attrs: Vec<f64>,
}

/// A [`WireClient`] that survives disconnects, server restarts, and
/// overload shedding. See the module docs for the resume protocol.
pub struct ResilientClient {
    addr: String,
    cfg: ClientConfig,
    conn: Option<WireClient>,
    buf: VecDeque<Pending>,
    /// Fleet-global sequence number the *next* offered event receives.
    next_g: u64,
    /// Consecutive failures feeding the exponential backoff; reset on
    /// any successful round trip.
    strikes: u32,
    rng: u64,
    stats: ClientStats,
}

impl ResilientClient {
    /// Create a client for `addr` and establish the first session
    /// (connect + `Hello`), retrying under backoff.
    pub fn connect(addr: impl Into<String>, cfg: ClientConfig) -> Result<Self, ClientError> {
        let mut c = ResilientClient {
            addr: addr.into(),
            // xorshift64 must not start at 0; fold the seed through a
            // odd constant so even seed 0 yields a live stream.
            rng: cfg.jitter_seed | 1,
            cfg,
            conn: None,
            buf: VecDeque::new(),
            next_g: 1,
            strikes: 0,
            stats: ClientStats::default(),
        };
        c.ensure_session()?;
        Ok(c)
    }

    /// Resilience counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Unacked events currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Fleet-global sequence number the next offered event will carry.
    pub fn position(&self) -> u64 {
        self.next_g
    }

    /// Offer one event. Always succeeds locally: the event is stamped
    /// and buffered, then opportunistically written to the live
    /// connection. A dead connection is noted and repaired on the next
    /// [`flush`](Self::flush) — ingest never blocks on reconnection.
    pub fn ingest(&mut self, type_id: TypeId, ts: u64, attrs: Vec<f64>) {
        let g = self.next_g;
        self.next_g += 1;
        self.buf.push_back(Pending {
            g,
            type_id,
            ts,
            attrs: attrs.clone(),
        });
        if let Some(conn) = self.conn.as_mut() {
            if conn.ingest(type_id, ts, attrs).is_err() {
                self.drop_conn();
            }
        }
    }

    /// Flush everything offered so far to a durable, acked position:
    /// drives reconnect + `Hello`/`Resume` re-feed until the server
    /// returns a `Summary` acking the full buffer, then returns that
    /// summary as `(offered, matches, keys, refeed_skipped)`.
    pub fn flush(&mut self) -> Result<(u64, u64, u64, u64), ClientError> {
        let mut attempts = 0u32;
        let mut last = String::from("no attempt made");
        while attempts <= self.cfg.max_retries {
            attempts += 1;
            if let Err(e) = self.ensure_session() {
                match e {
                    ClientError::RetriesExhausted { .. } | ClientError::Wire(_) => {
                        last = e.to_string();
                        continue;
                    }
                    other => return Err(other),
                }
            }
            match self.flush_once() {
                Ok(summary) => {
                    self.strikes = 0;
                    return Ok(summary);
                }
                Err(FlushFail::Overloaded { retry_after_ms }) => {
                    self.stats.overloaded_seen += 1;
                    last = format!("server overloaded (retry after {retry_after_ms} ms)");
                    self.backoff_at_least(Duration::from_millis(retry_after_ms));
                    // Same connection is still good — re-sync clears the
                    // server's shed latch and tells us where to re-feed.
                    if let Err(e) = self.resync() {
                        last = e.to_string();
                    }
                }
                Err(FlushFail::Gone(msg)) => {
                    last = msg;
                    self.drop_conn();
                    self.backoff();
                }
                Err(FlushFail::Fatal(e)) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted { attempts, last })
    }

    /// Fetch one telemetry document over the live session (reconnecting
    /// first if needed).
    pub fn telemetry(&mut self, endpoint: &str) -> Result<String, ClientError> {
        self.ensure_session()?;
        let conn = self.conn.as_mut().expect("ensure_session leaves a conn");
        match conn.telemetry(endpoint) {
            Ok(body) => Ok(body),
            Err(e) => {
                self.drop_conn();
                Err(ClientError::Wire(e))
            }
        }
    }

    // ---- internals -----------------------------------------------------

    fn drop_conn(&mut self) {
        if self.conn.take().is_some() {
            self.stats.conn_drops += 1;
        }
    }

    /// Dial + handshake until a session exists, under backoff.
    fn ensure_session(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut attempts = 0u32;
        let mut last = String::from("no attempt made");
        while attempts <= self.cfg.max_retries {
            attempts += 1;
            match self.try_connect() {
                Ok(()) => return Ok(()),
                Err(ClientError::Wire(e)) => {
                    last = e.to_string();
                    self.drop_conn();
                    self.backoff();
                }
                Err(other) => return Err(other),
            }
        }
        Err(ClientError::RetriesExhausted { attempts, last })
    }

    /// One dial + `Hello` + re-feed attempt.
    fn try_connect(&mut self) -> Result<(), ClientError> {
        let target = resolve(&self.addr)?;
        let stream = TcpStream::connect_timeout(&target, self.cfg.connect_timeout)
            .map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        let conn =
            WireClient::from_stream(stream).map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        conn.set_io_timeout(Some(self.cfg.io_timeout))
            .map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        self.conn = Some(conn);
        self.stats.connects += 1;
        self.resync()?;
        self.strikes = 0;
        Ok(())
    }

    /// `Hello` → `Resume { resume_seq }` → re-feed the buffer from
    /// `resume_seq` on the current connection.
    fn resync(&mut self) -> Result<(), ClientError> {
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => {
                return Err(ClientError::Wire(WireError::Protocol(
                    "no connection".into(),
                )))
            }
        };
        let resume_seq = match conn.hello() {
            Ok(r) => r,
            Err(e) => {
                self.drop_conn();
                return Err(ClientError::Wire(e));
            }
        };
        self.align(resume_seq)?;
        let conn = self.conn.as_mut().expect("alive above");
        let mut refed = 0u64;
        for p in self.buf.iter().filter(|p| p.g >= resume_seq) {
            if let Err(e) = conn.send(&WireMsg::Ingest {
                type_id: p.type_id,
                ts: p.ts,
                attrs: p.attrs.clone(),
            }) {
                self.drop_conn();
                return Err(ClientError::Wire(e));
            }
            refed += 1;
        }
        if let Some(conn) = self.conn.as_mut() {
            if let Err(e) = conn.flush_wire() {
                self.drop_conn();
                return Err(ClientError::Wire(e));
            }
        }
        self.stats.resyncs += 1;
        self.stats.refed_events += refed;
        Ok(())
    }

    /// Validate the server's resume point against the local buffer.
    ///
    /// The prune-horizon contract makes the legal window exact: the
    /// buffer head is `prune_to + 1` of the last ack, every future
    /// `resume_seq` is `min(high_water) + 1 >= prune_to + 1`, and a
    /// single producer can never see a resume point ahead of its own
    /// position. Anything outside `[buffer head, next_g]` means the
    /// server's state was reset or belongs to a different producer.
    fn align(&mut self, resume_seq: u64) -> Result<(), ClientError> {
        if resume_seq > self.next_g {
            if self.buf.is_empty() && self.stats.acked_events == 0 {
                // Fresh producer joining a fleet with history: adopt the
                // server's position as our own.
                self.next_g = resume_seq;
                return Ok(());
            }
            return Err(ClientError::Wire(WireError::Protocol(format!(
                "server resume_seq {resume_seq} is ahead of producer position {}",
                self.next_g
            ))));
        }
        let floor = self.buf.front().map_or(self.next_g, |p| p.g);
        if resume_seq < floor {
            return Err(ClientError::Wire(WireError::Protocol(format!(
                "server resume_seq {resume_seq} regressed below the prune horizon {floor}; \
                 acked events were lost server-side"
            ))));
        }
        Ok(())
    }

    /// One `Flush` round trip on the live connection.
    fn flush_once(&mut self) -> Result<(u64, u64, u64, u64), FlushFail> {
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => return Err(FlushFail::Gone("no connection".into())),
        };
        if let Err(e) = conn.send(&WireMsg::Flush).and_then(|()| conn.flush_wire()) {
            return Err(FlushFail::Gone(e.to_string()));
        }
        // Frames before the Summary may be stale Overloaded replies to
        // shed ingests; any one of them means part of the stream was
        // dropped, so surface the overload and re-sync.
        match conn.recv() {
            Ok(Some(WireMsg::Summary {
                offered,
                matches,
                keys,
                refeed_skipped,
                prune_to,
            })) => {
                // Prune only to the server's horizon, not to `offered`:
                // re-feeds must start exactly at a future `resume_seq`,
                // which can reach back to min(high_water) + 1 — everything
                // above the horizon stays buffered even though it is
                // acked and durable.
                let before = self.buf.len();
                while self.buf.front().is_some_and(|p| p.g <= prune_to) {
                    self.buf.pop_front();
                }
                self.stats.acked_events += (before - self.buf.len()) as u64;
                if offered + 1 >= self.next_g {
                    Ok((offered, matches, keys, refeed_skipped))
                } else {
                    // The fleet position never caught up to what this
                    // producer offered — a wiped or foreign server. Retry
                    // (and ultimately surface) rather than ack silently.
                    Err(FlushFail::Gone(format!(
                        "summary position {} below producer position {}",
                        offered,
                        self.next_g - 1
                    )))
                }
            }
            Ok(Some(WireMsg::Overloaded { retry_after_ms })) => {
                Err(FlushFail::Overloaded { retry_after_ms })
            }
            // A server Error reply condemns the *connection* (framing
            // diagnosis, rejected ingest), not the session: reconnect and
            // re-feed. A persistent server-side failure keeps producing
            // the same Error and surfaces as RetriesExhausted carrying it.
            Ok(Some(WireMsg::Error { message })) => {
                Err(FlushFail::Gone(format!("server error: {message}")))
            }
            Ok(Some(other)) => Err(FlushFail::Fatal(ClientError::Wire(WireError::Protocol(
                format!("expected Summary, got {other:?}"),
            )))),
            Ok(None) => Err(FlushFail::Gone("server closed before Summary".into())),
            Err(e) => Err(FlushFail::Gone(e.to_string())),
        }
    }

    /// Deterministic xorshift64 step.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Capped exponential backoff with jitter in `[delay/2, delay]`.
    fn backoff_delay(&mut self) -> Duration {
        let exp = self.strikes.min(16);
        self.strikes = self.strikes.saturating_add(1);
        let base = self.cfg.backoff_base.as_millis() as u64;
        let cap = self.cfg.backoff_max.as_millis() as u64;
        let full = base.saturating_mul(1u64 << exp).min(cap.max(1));
        let half = (full / 2).max(1);
        let jittered = half + self.next_rand() % (full - half + 1);
        Duration::from_millis(jittered)
    }

    fn backoff(&mut self) {
        let d = self.backoff_delay();
        self.stats.backoffs += 1;
        std::thread::sleep(d);
    }

    /// Backoff, honouring the server's `retry_after_ms` as a floor.
    fn backoff_at_least(&mut self, floor: Duration) {
        let d = self.backoff_delay().max(floor);
        self.stats.backoffs += 1;
        std::thread::sleep(d);
    }
}

/// Internal classification of a flush attempt's failure.
enum FlushFail {
    /// Server shed the flush (or a prior ingest); back off + re-sync.
    Overloaded { retry_after_ms: u64 },
    /// Connection is unusable; reconnect and retry.
    Gone(String),
    /// Not retryable.
    Fatal(ClientError),
}

fn resolve(addr: &str) -> Result<SocketAddr, ClientError> {
    match addr.to_socket_addrs() {
        Ok(mut it) => it.next().ok_or_else(|| ClientError::NoAddr(addr.into())),
        Err(e) => Err(ClientError::Wire(WireError::Io(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            max_retries: 3,
            jitter_seed: 42,
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mk = || ResilientClient {
            addr: "127.0.0.1:1".into(),
            cfg: test_cfg(),
            conn: None,
            buf: VecDeque::new(),
            next_g: 1,
            strikes: 0,
            rng: test_cfg().jitter_seed | 1,
            stats: ClientStats::default(),
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..32 {
            assert_eq!(a.backoff_delay(), b.backoff_delay());
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut c = ResilientClient {
            addr: "127.0.0.1:1".into(),
            cfg: ClientConfig {
                backoff_base: Duration::from_millis(10),
                backoff_max: Duration::from_millis(100),
                ..test_cfg()
            },
            conn: None,
            buf: VecDeque::new(),
            next_g: 1,
            strikes: 0,
            rng: 42 | 1,
            stats: ClientStats::default(),
        };
        let first = c.backoff_delay();
        assert!(first >= Duration::from_millis(5) && first <= Duration::from_millis(10));
        for _ in 0..10 {
            let d = c.backoff_delay();
            assert!(d <= Duration::from_millis(100), "cap violated: {d:?}");
        }
        // After many strikes the delay sits in [cap/2, cap].
        let late = c.backoff_delay();
        assert!(late >= Duration::from_millis(50));
    }

    #[test]
    fn connect_to_dead_addr_exhausts_retries() {
        // Port 1 refuses immediately on loopback, so this is fast.
        let err = ResilientClient::connect("127.0.0.1:1", test_cfg())
            .err()
            .expect("must not connect");
        match err {
            ClientError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4),
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn align_adopts_fresh_position_and_rejects_ahead() {
        let mut c = ResilientClient {
            addr: "127.0.0.1:1".into(),
            cfg: test_cfg(),
            conn: None,
            buf: VecDeque::new(),
            next_g: 1,
            strikes: 0,
            rng: 43,
            stats: ClientStats::default(),
        };
        // Fresh producer adopts server history.
        c.align(7).unwrap();
        assert_eq!(c.position(), 7);
        c.buf.push_back(Pending {
            g: 7,
            type_id: TypeId(1),
            ts: 0,
            attrs: vec![],
        });
        c.next_g = 8;
        // Resume below the buffer head violates the prune-horizon
        // contract (the head *is* the last ack's prune_to + 1).
        assert!(matches!(c.align(3), Err(ClientError::Wire(_))));
        // Resume ahead of an established producer is a protocol error.
        assert!(matches!(c.align(9), Err(ClientError::Wire(_))));
        // In-window resumes are fine.
        c.align(7).unwrap();
        c.align(8).unwrap();
    }
}
