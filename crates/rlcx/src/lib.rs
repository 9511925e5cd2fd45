//! `rlcx` — clocktree RLC extraction with efficient table-based inductance
//! modeling.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`numeric`] | `rlcx-numeric` | dense linear algebra, splines, Krylov, MOR |
//! | [`geom`] | `rlcx-geom` | conductors, stackups, blocks, trees, H-trees |
//! | [`peec`] | `rlcx-peec` | PEEC field solver (RI3/FastHenry substitute) |
//! | [`cap`] | `rlcx-cap` | capacitance/resistance models, process variation |
//! | [`spice`] | `rlcx-spice` | MNA transient simulator (SPICE substitute) |
//! | [`core`] | `rlcx-core` | inductance tables + clocktree RLC formulation |
//! | [`clocktree`] | `rlcx-clocktree` | buffered H-tree skew analysis |
//!
//! Observability (tracing spans, metrics, machine-readable run reports)
//! lives in [`obs`] — a re-export of `rlcx_numeric::obs`, instrumented
//! throughout the crates above. Set `RLCX_TRACE=summary` to see a span
//! tree on stderr.
//!
//! # Quickstart
//!
//! ```
//! use rlcx::core::TableBuilder;
//! use rlcx::geom::{Block, Stackup};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stackup = Stackup::hp_six_metal_copper();
//! let tables = TableBuilder::new(stackup, 5)?
//!     .widths(vec![2.0, 5.0, 10.0])
//!     .lengths(vec![250.0, 1000.0, 4000.0])
//!     .build()?;
//! let l = tables.self_l.lookup(5.0, 2000.0); // spline-interpolated
//! assert!(l > 0.5e-9 && l < 5e-9);
//! # Ok(())
//! # }
//! ```

pub use rlcx_cap as cap;
pub use rlcx_clocktree as clocktree;
pub use rlcx_core as core;
pub use rlcx_geom as geom;
pub use rlcx_numeric as numeric;
pub use rlcx_numeric::obs;
pub use rlcx_peec as peec;
pub use rlcx_spice as spice;
