//! # dlacep-data
//!
//! Dataset substrate for the DLACEP reproduction.
//!
//! The paper evaluates on (a) a purchased NASDAQ tick dataset (689M events,
//! 2500+ stock identifiers, volume attribute) and (b) synthetic streams with
//! 15 uniform event types and a standard-normal attribute. The NASDAQ data is
//! proprietary, so [`stocks`] generates a synthetic equivalent that preserves
//! the two properties the experiments actually exercise: Zipf-skewed ticker
//! prevalence (the `T_k` top-k sets of Table 1 control applicable-event
//! rates) and a continuous volume attribute with tunable band-condition
//! selectivity. See DESIGN.md for the substitution note.
//!
//! [`label`] produces ground-truth training labels by running the exact CEP
//! engine over 2W-sized samples (paper §4.3), including the negation-aware
//! labeling fix of §4.4.

#![forbid(unsafe_code)]

pub mod label;
pub mod split;
pub mod standardize;
pub mod stocks;
pub mod synthetic;

pub use label::{label_stream, LabeledSample};
pub use split::train_test_split;
pub use standardize::Standardizer;
pub use stocks::{top_k_types, StockConfig};
pub use synthetic::SyntheticConfig;
