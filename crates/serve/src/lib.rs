//! # dlacep-serve
//!
//! Keyed multi-shard ingestion tier for DLACEP: one front door, N
//! independent durable runtime shards.
//!
//! Events are stamped with a fleet-global sequence number, keyed by a
//! [`KeyExtractor`](dlacep_events::KeyExtractor), and hash-partitioned
//! ([`hash`]) across shards, each of which owns its own WAL + checkpoint
//! directory and its own per-key [`StreamingDlacep`] runtimes — guard,
//! drift, and retrain lifecycles included. [`ShardedDlacep::recover`]
//! restores the whole fleet and tells the source where to resume.
//!
//! Front ends, outermost first:
//! - [`server`]: a TCP accept loop speaking the `DMSV` length-prefixed
//!   wire protocol ([`wire`]), hardened for production duty — graceful
//!   drain-then-barrier shutdown, connection caps with typed refusals,
//!   idle reaping, and overload shedding (`Overloaded` replies instead
//!   of blocking);
//! - [`channel`]: the in-process bounded-mpsc ingest pump (the primary
//!   tested path);
//! - [`ShardedDlacep`] itself, for callers that already own a thread.
//!
//! On the producer side, [`client::ResilientClient`] wraps the wire
//! protocol in timeouts, seeded-jitter backoff, and crash-safe resume:
//! it re-feeds its buffered tail from the server's `resume_seq` after a
//! reconnect and prunes only below the fleet's prune horizon. The
//! [`chaos`] module provides a deterministic fault-injecting TCP proxy
//! (`ChaosProxy`) that the chaos suite drives cuts, delays, and
//! duplicates through.
//!
//! Results merge into a [`FleetReport`]: per-key runtime reports in
//! canonical key order, per-shard rollups, fleet totals, and one labeled
//! Prometheus scrape for the whole fleet.
//!
//! Live telemetry rides two transports while the fleet ingests: the
//! `Tele` verb on the wire protocol, and the [`tele`] HTTP scrape
//! listener (`DLACEP_TELE_ADDR`) serving `/metrics`, `/healthz`,
//! `/traces`, and `/journal` off the same pump.
//!
//! [`StreamingDlacep`]: dlacep_core::StreamingDlacep

pub mod channel;
pub mod chaos;
pub mod client;
pub mod fleet;
pub mod hash;
pub mod report;
pub mod server;
pub mod tele;
pub mod wire;

pub use channel::{spawn, ServeError, ServeHandle, ServePump, TeleKind};
pub use chaos::{ChaosPlan, ChaosProxy, ChaosStats, MAX_DUP_BYTES};
pub use client::{ClientConfig, ClientError, ClientStats, ResilientClient};
pub use fleet::{
    shards_from_env, FilterFactory, FleetConfig, FleetError, FleetRecoveryReport, FleetStats,
    ShardRecovery, ShardStats, ShardedDlacep, TrainerFactory, SHARDS_ENV,
};
pub use hash::{fx_hash64, shard_of, DEFAULT_HASH_SEED, HASH_REVISION};
pub use report::{FleetReport, FleetTotals, KeyReport, ShardSummary};
pub use server::{
    serve_addr_from_env, RunningServer, ServerConfig, ServerReport, ShutdownHandle, WireClient,
    WireServer, DRAIN_ENV, IDLE_TIMEOUT_ENV, MAX_CONNS_ENV, READ_TIMEOUT_ENV, SERVE_ADDR_ENV,
    SHED_HIGH_WATER_ENV, SHED_RETRY_AFTER_ENV, TELE_TRUNCATION_MARKER,
};
pub use tele::{tele_addr_from_env, TeleServer, TELE_ADDR_ENV};
pub use wire::{
    encode_msg, write_msg, FrameReader, WireError, WireMsg, MAX_WIRE_PAYLOAD, WIRE_MAGIC,
    WIRE_VERSION,
};
