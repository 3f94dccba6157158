//! # dlacep-events
//!
//! Event model substrate shared by every other DLACEP crate.
//!
//! The paper (§2.1) defines a *primitive event* as a tuple `(N, F, t)` where
//! `N` is the event type, `F` a fixed-size attribute set, and `t` the
//! occurrence timestamp. On arrival at the system, every event additionally
//! receives a unique, strictly increasing [`EventId`] (§4.4); the DLACEP CEP
//! extractor uses ID distance to enforce the original count-window semantics
//! on filtered streams and thereby rule out false-positive matches.
//!
//! The crate provides:
//! * [`PrimitiveEvent`] and the id/type/timestamp newtypes,
//! * [`Schema`] — interning of event-type and attribute names,
//! * [`EventStream`] — an owned, id-stamped sequence of events,
//! * [`window`] — overlapping count-based and time-based window iterators
//!   (paper Fig. 3).

#![forbid(unsafe_code)]

pub mod durcodec;
pub mod event;
pub mod key;
pub mod schema;
pub mod stream;
pub mod window;

pub use event::{AttrValue, EventId, PrimitiveEvent, Timestamp, TypeId};
pub use key::KeyExtractor;
pub use schema::{Schema, SchemaBuilder};
pub use stream::{EventStream, OutOfOrderPolicy, StreamError};
pub use window::{CountWindows, TimeWindows, WindowSpec};
