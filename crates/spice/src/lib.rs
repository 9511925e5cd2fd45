//! Linear RLC circuit simulation — the SPICE substitute.
//!
//! The paper's delay and skew numbers (Figures 2–3, Section V) come from
//! transient simulation of extracted RLC netlists. This crate provides that
//! capability for linear networks:
//!
//! * [`Netlist`] — resistors, capacitors, (mutually coupled) inductors and
//!   independent voltage sources over named nodes,
//! * [`Waveform`] — DC, pulse and piecewise-linear source shapes,
//! * [`Transient`] — trapezoidal (or backward-Euler) MNA integration on a
//!   fixed or LTE-controlled adaptive time axis ([`Stepping`]), with LU
//!   factorizations reused across steps,
//! * [`measure`] — threshold crossings, 50 % delays, overshoot/undershoot
//!   and skew over sink groups,
//! * [`ac`] — small-signal frequency sweeps (transfer functions, resonance
//!   location),
//! * [`reduce`] — PRIMA model-order reduction into a passive pole/residue
//!   macromodel that answers delay queries in closed form, no time
//!   stepping,
//! * [`writer`] — SPICE-format netlist export for cross-checking.
//!
//! # Example: RC step response
//!
//! ```
//! use rlcx_spice::{Netlist, Transient, Waveform, GROUND};
//!
//! # fn main() -> Result<(), rlcx_spice::SpiceError> {
//! let mut ckt = Netlist::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("Vin", inp, GROUND, Waveform::step(1.0, 0.0))?;
//! ckt.resistor("R1", inp, out, 1e3)?;
//! ckt.capacitor("C1", out, GROUND, 1e-12)?;
//! let result = Transient::new(&ckt).timestep(1e-12).duration(10e-9).run()?;
//! // After 10 τ the output has settled to the source value.
//! let v_end = *result.voltage("out")?.last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod ac;
mod diagnose;
pub mod measure;
pub mod netlist;
#[cfg(test)]
mod oracle;
pub mod reduce;
pub mod stamp;
pub mod transient;
pub mod waveform;
pub mod writer;

mod error;

pub use ac::{Ac, AcResult, Sweep};
pub use error::SpiceError;
pub use netlist::{InductorId, Netlist, NodeId, GROUND};
pub use reduce::{Reduce, ReducedModel, ReductionOrder};
pub use transient::{AdaptiveOptions, IntegrationMethod, Stepping, Transient, TransientResult};
pub use waveform::Waveform;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SpiceError>;
