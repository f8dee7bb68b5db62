//! # vulnds-datasets — synthetic workloads matching the paper's Table 2
//!
//! The paper evaluates on three proprietary financial networks and five
//! public benchmark graphs, none of which can be redistributed here.
//! This crate regenerates graphs with the *published* shapes — node and
//! edge counts, degree skew, hub structure, probability distributions —
//! so every experiment in the bench harness runs out of the box.
//!
//! ```
//! use vulnds_datasets::Dataset;
//!
//! let g = Dataset::Interbank.generate(42);
//! assert_eq!(g.num_nodes(), 125); // Table 2
//! assert_eq!(g.num_edges(), 249);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod gen;
pub mod probs;
pub mod temporal;
pub mod weighted;

pub use catalog::{attach_probabilities, Dataset, DatasetSpec};
pub use probs::ProbabilityModel;
pub use temporal::{replay, update_stream, UpdateEvent, UpdateStreamParams};
pub use weighted::AliasTable;
