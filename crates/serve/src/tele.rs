//! Plaintext-HTTP telemetry scrape listener.
//!
//! A deliberately minimal HTTP/1.0-style responder — enough for
//! `curl`, Prometheus scrape jobs, and load-balancer health probes,
//! with no HTTP library dependency. Each connection gets one request
//! parsed (method + path only), one response, `Connection: close`.
//! Telemetry documents are rendered by the fleet pump thread via
//! [`ServeHandle::telemetry`], so a scrape sees a consistent in-memory
//! snapshot without racing ingest.
//!
//! Endpoints:
//!
//! | Path        | Content-Type              | Body |
//! |-------------|---------------------------|------|
//! | `/metrics`  | `text/plain; version=0.0.4` | Prometheus scrape: per-shard `serve_*` counters, live key-runtime metrics, queue-depth gauge |
//! | `/healthz`  | `application/json`        | fleet position, per-shard lag / keys / mode census |
//! | `/traces`   | `application/json`        | sampled trace ring as Chrome trace-event JSON |
//! | `/journal`  | `application/json`        | bounded tail of every key runtime's journal |
//!
//! The caller passes the listen address to [`TeleServer::bind`]; bind
//! port 0 for an ephemeral test port.

use crate::channel::{ServeError, ServeHandle};
use crate::server::tele_kind;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the request head read from a scrape connection; anything
/// longer is answered 400 without further buffering.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Socket i/o timeout on scrape connections. A probe that connects and
/// never sends a request (or never drains the response) would otherwise
/// pin its handler thread forever.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The telemetry scrape listener: an accept-loop thread answering HTTP
/// GETs against a fleet's [`ServeHandle`]. Runs until [`shutdown`]
/// (or drop, which also shuts it down).
///
/// [`shutdown`]: TeleServer::shutdown
pub struct TeleServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TeleServer {
    /// Bind `addr` and start serving scrapes on a background thread.
    pub fn bind(addr: impl ToSocketAddrs, handle: ServeHandle) -> io::Result<TeleServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let handle = handle.clone();
                std::thread::spawn(move || {
                    let _ = serve_one(stream, &handle);
                });
            }
        });
        Ok(TeleServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. In-flight responses
    /// finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = thread.join();
    }
}

impl Drop for TeleServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Parse one request head and write one response.
fn serve_one(mut stream: TcpStream, handle: &ServeHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    let path = match read_request_path(&mut stream)? {
        Some(path) => path,
        None => return Ok(()), // shutdown poke or empty request
    };
    let (status, content_type, body) = respond(&path, handle);
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and return the GET path.
/// Non-GET methods and oversized heads yield a path that routes to an
/// error response rather than an i/o failure.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..got]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Ok(Some("\u{0}oversized".into()));
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(Some("\u{0}bad-method".into())),
    }
}

fn respond(path: &str, handle: &ServeHandle) -> (&'static str, &'static str, String) {
    if path.starts_with('\u{0}') {
        return (
            "400 Bad Request",
            "text/plain",
            "only GET requests are served\n".into(),
        );
    }
    let path = path.split('?').next().unwrap_or(path);
    let Some(kind) = tele_kind(path) else {
        return (
            "404 Not Found",
            "text/plain",
            "endpoints: /metrics /healthz /traces /journal\n".into(),
        );
    };
    match handle.telemetry(kind) {
        Ok(body) => {
            let content_type = if path.trim_start_matches('/') == "metrics" {
                "text/plain; version=0.0.4"
            } else {
                "application/json"
            };
            ("200 OK", content_type, body)
        }
        Err(ServeError::Closed) => (
            "503 Service Unavailable",
            "text/plain",
            "fleet pump is closed\n".into(),
        ),
        Err(e) => ("500 Internal Server Error", "text/plain", format!("{e}\n")),
    }
}
