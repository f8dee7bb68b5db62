//! # vulnds-sketch — bottom-k sketches
//!
//! The bottom-k sketch (Cohen & Kaplan, PODC 2007) underlies the early
//! stopping condition of the paper's BSRBK algorithm (§3.3): visiting
//! samples in ascending hash order, the first candidate node that defaults
//! in `bk` samples is exactly the node whose bottom-k sketch has the
//! smallest `bk`-th order statistic, hence the highest estimated default
//! probability (Theorem 6).
//!
//! ```
//! use vulnds_sketch::{BottomK, UnitHasher};
//!
//! let h = UnitHasher::new(7);
//! let mut sketch = BottomK::new(16);
//! for key in 0..10_000u64 {
//!     sketch.insert(h.hash_unit(key));
//! }
//! let est = sketch.distinct_estimate().unwrap();
//! assert!((est - 10_000.0).abs() / 10_000.0 < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bottomk;
pub mod estimator;
pub mod hash;

pub use bottomk::BottomK;
pub use estimator::bottomk_default_probability;
pub use hash::{hash_order, UnitHasher};
