//! In-process ingest front door: a bounded mpsc command channel feeding a
//! single pump thread that owns the fleet.
//!
//! This is the primary tested path of the serving tier. The channel is
//! *bounded* ([`std::sync::mpsc::sync_channel`]) so a slow fleet pushes
//! back on producers instead of buffering without limit — admission
//! control composes with the runtime-level shed/budget machinery rather
//! than hiding behind an unbounded queue. A single pump thread applies
//! commands in channel order, which keeps the fleet's global sequence
//! numbering deterministic for any one producer.
//!
//! ## Failure visibility
//!
//! The first fleet error the pump hits *poisons* the front door: the
//! error is stored, later ingests are rejected at the handle with the
//! stored message, and every later `sync`/`checkpoint`/`stats` barrier
//! reports it instead of pretending the fleet is healthy. A client can
//! therefore never read a clean [`FleetStats`] summary while its ingests
//! are being dropped on the floor.

use crate::fleet::{FleetError, FleetStats, ShardedDlacep};
use crate::report::FleetReport;
use dlacep_core::Filter;
use dlacep_dur::Store;
use dlacep_events::{AttrValue, TypeId};
use dlacep_obs::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Journal entries per key included in a [`TeleKind::Journal`] reply.
const JOURNAL_TAIL_PER_KEY: usize = 64;

/// Journal capacity of the serving-tier registry created by [`spawn`]
/// (connection lifecycle + shed/shutdown events, not per-event traffic).
const SERVE_JOURNAL_CAPACITY: usize = 256;

/// Which live telemetry document a [`ServeHandle::telemetry`] call asks
/// the pump for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TeleKind {
    /// Prometheus text scrape: per-shard `serve_*` counters, live key
    /// runtime metrics, the ingest queue depth gauge, and the serving
    /// tier's own `serve_conn_*`/`serve_shed_*` counters.
    Metrics,
    /// JSON liveness document (fleet position, per-shard lag and modes).
    Healthz,
    /// Chrome trace-event JSON of the sampled trace ring.
    Traces,
    /// JSON tail of every key runtime's journal plus the serving tier's
    /// own journal (connection lifecycle, shedding, shutdown).
    Journal,
}

enum Command {
    Ingest {
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    },
    Sync {
        done: SyncSender<Result<(), String>>,
    },
    Checkpoint {
        done: SyncSender<Result<(), String>>,
    },
    Stats {
        reply: SyncSender<Result<FleetStats, String>>,
    },
    Telemetry {
        kind: TeleKind,
        reply: SyncSender<String>,
    },
}

/// Serving-tier failures surfaced to front-end callers.
#[derive(Debug)]
pub enum ServeError {
    /// The pump thread is gone (fleet already finished or panicked).
    Closed,
    /// The fleet rejected an operation; the message is the rendered
    /// [`FleetError`] (errors cross the thread as strings).
    Fleet(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "serve: ingest pump is closed"),
            ServeError::Fleet(msg) => write!(f, "serve: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Cloneable ingest handle. Sends block when the channel is full
/// (backpressure) and fail with [`ServeError::Closed`] once the pump is
/// finished, or with the stored fleet error once the pump is poisoned.
#[derive(Clone)]
pub struct ServeHandle {
    tx: SyncSender<Command>,
    /// Ingest commands sent but not yet applied by the pump — the live
    /// backpressure signal exported as `dlacep_serve_queue_depth`.
    depth: Arc<AtomicU64>,
    /// First fleet error the pump hit, if any. Set once by the pump,
    /// checked by every later ingest so a failing fleet rejects instead
    /// of silently dropping.
    poison: Arc<Mutex<Option<String>>>,
    /// Serving-tier metrics/journal (connection lifecycle, shedding,
    /// shutdown phases) — shared by the front ends, rendered by the pump.
    obs: Arc<Registry>,
}

impl ServeHandle {
    /// Offer one event to the fleet (asynchronous: durability follows the
    /// fleet cadence; call [`sync`](Self::sync) for a barrier).
    pub fn ingest(
        &self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    ) -> Result<(), ServeError> {
        if let Some(msg) = self.poisoned() {
            return Err(ServeError::Fleet(msg));
        }
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Command::Ingest { type_id, ts, attrs })
            .map_err(|_| {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                ServeError::Closed
            })
    }

    /// Ingest commands currently queued ahead of the pump.
    pub fn queue_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The stored first fleet error, if the pump has been poisoned.
    pub fn poisoned(&self) -> Option<String> {
        self.poison.lock().expect("poison lock").clone()
    }

    /// The serving-tier registry (connection/shed counters + journal).
    /// Front ends record into it; the pump renders it into telemetry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Ask the pump to render one live telemetry document. Replies come
    /// from the fleet's current in-memory state — no sync or checkpoint
    /// is forced.
    pub fn telemetry(&self, kind: TeleKind) -> Result<String, ServeError> {
        let (reply, wait) = sync_channel(1);
        self.tx
            .send(Command::Telemetry { kind, reply })
            .map_err(|_| ServeError::Closed)?;
        wait.recv().map_err(|_| ServeError::Closed)
    }

    /// Block until everything offered so far is fsynced in every shard.
    /// Reports the stored fleet error if the pump is poisoned.
    pub fn sync(&self) -> Result<(), ServeError> {
        self.barrier(|done| Command::Sync { done })
    }

    /// Block until a fleet-wide checkpoint has landed. Reports the stored
    /// fleet error if the pump is poisoned.
    pub fn checkpoint(&self) -> Result<(), ServeError> {
        self.barrier(|done| Command::Checkpoint { done })
    }

    fn barrier(
        &self,
        mk: impl FnOnce(SyncSender<Result<(), String>>) -> Command,
    ) -> Result<(), ServeError> {
        let (done, wait) = sync_channel(1);
        self.tx.send(mk(done)).map_err(|_| ServeError::Closed)?;
        match wait.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(msg)) => Err(ServeError::Fleet(msg)),
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// Fleet counters after everything sent on this handle so far.
    /// Reports the stored fleet error if the pump is poisoned — a client
    /// must never mistake a partially-applied stream for a healthy one.
    pub fn stats(&self) -> Result<FleetStats, ServeError> {
        let (reply, wait) = sync_channel(1);
        self.tx
            .send(Command::Stats { reply })
            .map_err(|_| ServeError::Closed)?;
        match wait.recv() {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(msg)) => Err(ServeError::Fleet(msg)),
            Err(_) => Err(ServeError::Closed),
        }
    }
}

/// Owner side of the pump: join it to obtain the merged fleet report, or
/// take the fleet back out ([`into_fleet`](Self::into_fleet)) to recover
/// or restart it.
pub struct ServePump<F: Filter, S: Store> {
    thread: JoinHandle<(ShardedDlacep<F, S>, Option<FleetError>)>,
    tx: SyncSender<Command>,
}

/// Start the pump thread over `fleet` with a channel of `capacity`
/// in-flight commands. Returns the cloneable ingest handle and the pump.
pub fn spawn<F, S>(fleet: ShardedDlacep<F, S>, capacity: usize) -> (ServeHandle, ServePump<F, S>)
where
    F: Filter + Send + 'static,
    S: Store + Send + 'static,
{
    let (tx, rx) = sync_channel(capacity.max(1));
    let depth = Arc::new(AtomicU64::new(0));
    let poison = Arc::new(Mutex::new(None));
    let obs = Arc::new(Registry::with_journal_capacity(SERVE_JOURNAL_CAPACITY));
    let pump_depth = Arc::clone(&depth);
    let pump_poison = Arc::clone(&poison);
    let pump_obs = Arc::clone(&obs);
    let thread = std::thread::spawn(move || pump(fleet, rx, pump_depth, pump_poison, pump_obs));
    (
        ServeHandle {
            tx: tx.clone(),
            depth,
            poison,
            obs,
        },
        ServePump { thread, tx },
    )
}

fn pump<F: Filter, S: Store>(
    mut fleet: ShardedDlacep<F, S>,
    rx: Receiver<Command>,
    depth: Arc<AtomicU64>,
    poison: Arc<Mutex<Option<String>>>,
    obs: Arc<Registry>,
) -> (ShardedDlacep<F, S>, Option<FleetError>) {
    let mut first_err: Option<FleetError> = None;
    let fail = |e: FleetError, slot: &mut Option<FleetError>| {
        let msg = e.to_string();
        *poison.lock().expect("poison lock") = Some(msg.clone());
        if slot.is_none() {
            *slot = Some(e);
        }
        msg
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Ingest { type_id, ts, attrs } => {
                depth.fetch_sub(1, Ordering::Relaxed);
                if first_err.is_none() {
                    if let Err(e) = fleet.ingest(type_id, ts, attrs) {
                        fail(e, &mut first_err);
                    }
                }
            }
            Command::Sync { done } => {
                let r = match &first_err {
                    Some(e) => Err(e.to_string()),
                    None => match fleet.sync() {
                        Ok(()) => Ok(()),
                        Err(e) => Err(fail(e, &mut first_err)),
                    },
                };
                let _ = done.send(r);
            }
            Command::Checkpoint { done } => {
                let r = match &first_err {
                    Some(e) => Err(e.to_string()),
                    None => match fleet.checkpoint_now() {
                        Ok(()) => Ok(()),
                        Err(e) => Err(fail(e, &mut first_err)),
                    },
                };
                let _ = done.send(r);
            }
            Command::Stats { reply } => {
                let r = match &first_err {
                    Some(e) => Err(e.to_string()),
                    None => Ok(fleet.stats()),
                };
                let _ = reply.send(r);
            }
            Command::Telemetry { kind, reply } => {
                let body = render_telemetry(&fleet, kind, &depth, &obs);
                let _ = reply.send(body);
            }
        }
    }
    (fleet, first_err)
}

/// Render one telemetry document from the pump's consistent view of the
/// fleet, merging in the serving-tier registry where it belongs.
fn render_telemetry<F: Filter, S: Store>(
    fleet: &ShardedDlacep<F, S>,
    kind: TeleKind,
    depth: &AtomicU64,
    obs: &Registry,
) -> String {
    match kind {
        TeleKind::Metrics => {
            let mut scrape = fleet.render_live_prometheus();
            let queued = depth.load(Ordering::Relaxed);
            scrape.push_str(
                "# HELP dlacep_serve_queue_depth Ingest commands queued ahead of the pump.\n\
                 # TYPE dlacep_serve_queue_depth gauge\n",
            );
            scrape.push_str(&format!("dlacep_serve_queue_depth {queued}\n"));
            scrape.push_str(&format!(
                "# HELP dlacep_nn_simd_level Integer-kernel level int8 filters dispatch to.\n\
                 # TYPE dlacep_nn_simd_level gauge\n\
                 dlacep_nn_simd_level{{level=\"{}\"}} 1\n",
                dlacep_core::quantized::simd_level()
            ));
            // The serving tier's own counters (connection lifecycle,
            // shedding, telemetry truncation) ride the same scrape.
            scrape.push_str(&obs.render_prometheus());
            scrape
        }
        TeleKind::Healthz => fleet.healthz_json(),
        TeleKind::Traces => fleet.traces_json(),
        TeleKind::Journal => {
            let mut out = fleet.journal_json(JOURNAL_TAIL_PER_KEY);
            let serve = serve_journal_items(obs);
            if !serve.is_empty() {
                // Splice the serving-tier entries into the fleet's array.
                out.truncate(out.len() - 1);
                if out.len() > 1 {
                    out.push(',');
                }
                out.push_str(&serve.join(","));
                out.push(']');
            }
            out
        }
    }
}

/// The serving-tier journal as JSON objects shaped like the fleet's
/// per-key entries, tagged `"scope":"serve"` instead of a shard/key.
fn serve_journal_items(obs: &Registry) -> Vec<String> {
    use dlacep_obs::{json_field, json_string};
    let snap = obs.snapshot();
    snap.journal
        .entries
        .iter()
        .map(|e| {
            let mut item = format!(
                "{{\"scope\":\"serve\",\"seq\":{},\"at_nanos\":{},\"kind\":{},\"fields\":{{",
                e.seq,
                e.at_nanos,
                json_string(&e.kind)
            );
            for (fi, (name, value)) in e.fields.iter().enumerate() {
                if fi > 0 {
                    item.push(',');
                }
                item.push_str(&json_string(name));
                item.push(':');
                item.push_str(&json_field(value));
            }
            item.push_str("}}");
            item
        })
        .collect()
}

impl<F: Filter, S: Store> ServePump<F, S> {
    /// Close this side of the command channel and join the pump, returning
    /// the merged fleet report (or the first ingest error the pump
    /// stored). The pump drains only once every outstanding
    /// [`ServeHandle`] clone is dropped too — drop them before calling
    /// this, or `finish` blocks waiting for them.
    pub fn finish(self) -> Result<FleetReport, ServeError> {
        drop(self.tx);
        match self.thread.join() {
            Ok((fleet, None)) => Ok(fleet.finish()),
            Ok((_, Some(e))) => Err(ServeError::Fleet(e.to_string())),
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// Close the channel, join the pump, and hand the fleet back *without*
    /// finishing it — the restart path: the caller can
    /// [`checkpoint`](ShardedDlacep::checkpoint_now) it, tear it down via
    /// [`into_stores`](ShardedDlacep::into_stores), or re-[`spawn`] it.
    /// The stored first error (if any) rides along instead of masking the
    /// fleet.
    pub fn into_fleet(self) -> Result<(ShardedDlacep<F, S>, Option<FleetError>), ServeError> {
        drop(self.tx);
        match self.thread.join() {
            Ok((fleet, err)) => Ok((fleet, err)),
            Err(_) => Err(ServeError::Closed),
        }
    }
}
