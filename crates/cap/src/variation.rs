//! Monte-Carlo process variation — the statistical RC generation flow.
//!
//! Section V of the paper: "Since inductance is not sensitive to process
//! variation […] we can combine the nominal inductance with the
//! statistically generated RC in the formulation of the RLC netlist in the
//! study of process variation impact to clock skew." The sampler here
//! perturbs trace width (with pitch preserved, so spacing absorbs the width
//! delta — the lithography reality) and metal thickness, from which callers
//! regenerate R and C while keeping L nominal.

use crate::{CapError, Result};
use rlcx_geom::{Block, BlockBuilder};
use rlcx_numeric::rng::UniformRng;

/// Width and thickness draws are truncated at this many standard
/// deviations (see [`VariationSpec::sample_block`]).
pub const TRUNCATION_SIGMAS: f64 = 3.0;

/// 3σ-style relative variation magnitudes for interconnect geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Relative 1σ variation of trace width (CD variation).
    pub width_sigma: f64,
    /// Relative 1σ variation of metal thickness (CMP/deposition).
    pub thickness_sigma: f64,
}

impl VariationSpec {
    /// A representative late-1990s process corner set: 5 % width σ,
    /// 8 % thickness σ.
    pub fn typical() -> Self {
        VariationSpec {
            width_sigma: 0.05,
            thickness_sigma: 0.08,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] for negative or ≥ 30 % sigmas
    /// (beyond which pitch-preserving sampling can drive spacings negative).
    pub fn validated(self) -> Result<Self> {
        for (what, v) in [
            ("width sigma", self.width_sigma),
            ("thickness sigma", self.thickness_sigma),
        ] {
            if !(0.0..0.3).contains(&v) {
                return Err(CapError::InvalidParameter {
                    what: format!("{what} must be in [0, 0.3), got {v}"),
                });
            }
        }
        Ok(self)
    }

    /// Draws one perturbed copy of `block`: every trace width scales by a
    /// common factor `1 + δ_w` (CD bias is strongly spatially correlated at
    /// block scale) while adjacent spacings shrink/grow to preserve pitch.
    /// Returns the perturbed block and the drawn `(δ_w, δ_t)` pair; the
    /// thickness delta applies to the layer, which the block does not carry,
    /// so callers scale the layer thickness themselves.
    ///
    /// Both deltas are Gaussian draws clamped to ±[`TRUNCATION_SIGMAS`]σ:
    /// process corners are specified at 3σ, and an untruncated tail draw
    /// (a +3.6σ width bias closes a 1 µm gap between 5 µm traces to
    /// 0.1 µm) models no manufacturable line. Clamping consumes the same
    /// random numbers as the plain draw, so the stream stays aligned and
    /// every draw inside the band is bit-identical to the untruncated one.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::Geometry`] if the draw produces a non-positive
    /// spacing (possible only for extreme sigmas).
    pub fn sample_block<R: UniformRng>(
        &self,
        block: &Block,
        rng: &mut R,
    ) -> Result<(Block, f64, f64)> {
        let z_max = TRUNCATION_SIGMAS;
        let dw = rng.gaussian().clamp(-z_max, z_max) * self.width_sigma;
        let dt = rng.gaussian().clamp(-z_max, z_max) * self.thickness_sigma;
        let widths = block.widths();
        let spacings = block.spacings();
        let mut b = BlockBuilder::new(block.length()).shield(block.shield());
        for i in 0..widths.len() {
            b = b.trace(widths[i] * (1.0 + dw));
            if i < spacings.len() {
                // Pitch preserved: the spacing absorbs both half-edges. A
                // floor of 5 % of nominal keeps extreme draws physical
                // (etched lines cannot merge).
                let s =
                    (spacings[i] - 0.5 * dw * (widths[i] + widths[i + 1])).max(0.05 * spacings[i]);
                b = b.space(s);
            }
        }
        Ok((b.build()?, dw, dt))
    }
}

impl Default for VariationSpec {
    fn default() -> Self {
        VariationSpec::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_numeric::rng::SplitMix64;
    use rlcx_numeric::stats::Summary;

    fn base_block() -> Block {
        Block::coplanar_waveguide(1000.0, 10.0, 5.0, 1.0).unwrap()
    }

    #[test]
    fn typical_spec_validates() {
        assert!(VariationSpec::typical().validated().is_ok());
        assert!(VariationSpec {
            width_sigma: -0.1,
            thickness_sigma: 0.0
        }
        .validated()
        .is_err());
        assert!(VariationSpec {
            width_sigma: 0.0,
            thickness_sigma: 0.5
        }
        .validated()
        .is_err());
    }

    #[test]
    fn pitch_is_preserved() {
        let spec = VariationSpec::typical();
        let mut rng = SplitMix64::new(7);
        let base = base_block();
        for _ in 0..50 {
            let (b, _, _) = spec.sample_block(&base, &mut rng).unwrap();
            // Pitch between trace centers: w_i/2 + s_i + w_{i+1}/2.
            for i in 0..base.spacings().len() {
                let p0 = 0.5 * base.widths()[i] + base.spacings()[i] + 0.5 * base.widths()[i + 1];
                let p1 = 0.5 * b.widths()[i] + b.spacings()[i] + 0.5 * b.widths()[i + 1];
                assert!((p0 - p1).abs() < 1e-9, "pitch drifted: {p0} vs {p1}");
            }
        }
    }

    #[test]
    fn samples_center_on_nominal() {
        let spec = VariationSpec::typical();
        let mut rng = SplitMix64::new(42);
        let base = base_block();
        let s: Summary = (0..2000)
            .map(|_| spec.sample_block(&base, &mut rng).unwrap().0.widths()[1])
            .collect();
        assert!((s.mean() - 10.0).abs() < 0.1, "mean = {}", s.mean());
        assert!((s.std_dev() / 10.0 - spec.width_sigma).abs() < 0.01);
    }

    #[test]
    fn zero_sigma_reproduces_nominal() {
        let spec = VariationSpec {
            width_sigma: 0.0,
            thickness_sigma: 0.0,
        };
        let mut rng = SplitMix64::new(1);
        let (b, dw, dt) = spec.sample_block(&base_block(), &mut rng).unwrap();
        assert_eq!(b.widths(), base_block().widths());
        assert_eq!(dw, 0.0);
        assert_eq!(dt, 0.0);
    }

    #[test]
    fn deltas_are_reported() {
        let spec = VariationSpec::typical();
        let mut rng = SplitMix64::new(3);
        let (b, dw, _) = spec.sample_block(&base_block(), &mut rng).unwrap();
        assert!((b.widths()[1] - 10.0 * (1.0 + dw)).abs() < 1e-12);
    }

    #[test]
    fn tail_draws_are_truncated_at_three_sigma() {
        // Seed 9342 draws a +3.97σ width bias first: untruncated it would
        // close the 1 µm gaps of this 5/5/5 µm block to 0.05 µm (the
        // floor).
        let spec = VariationSpec::typical();
        let block = Block::coplanar_waveguide(1000.0, 5.0, 5.0, 1.0).unwrap();
        let z = SplitMix64::new(9342).gaussian();
        assert!(
            z > TRUNCATION_SIGMAS,
            "seed no longer draws a tail: z = {z}"
        );
        let (b, dw, dt) = spec
            .sample_block(&block, &mut SplitMix64::new(9342))
            .unwrap();
        let dw_max = TRUNCATION_SIGMAS * spec.width_sigma;
        assert_eq!(dw, dw_max);
        assert!(dt.abs() <= TRUNCATION_SIGMAS * spec.thickness_sigma);
        for (i, &s) in b.spacings().iter().enumerate() {
            let limit =
                block.spacings()[i] - 0.5 * dw_max * (block.widths()[i] + block.widths()[i + 1]);
            assert!(s >= limit - 1e-12, "spacing {s} below 3σ limit {limit}");
            assert!(s > 0.2, "spacing {s}");
        }
    }

    #[test]
    fn in_band_draws_are_unchanged_by_truncation() {
        let spec = VariationSpec::typical();
        for seed in 0..200 {
            let mut plain = SplitMix64::new(seed);
            let (zw, zt) = (plain.gaussian(), plain.gaussian());
            let (_, dw, dt) = spec
                .sample_block(&base_block(), &mut SplitMix64::new(seed))
                .unwrap();
            if zw.abs() <= TRUNCATION_SIGMAS {
                assert_eq!(dw, zw * spec.width_sigma, "seed {seed}");
            }
            if zt.abs() <= TRUNCATION_SIGMAS {
                assert_eq!(dt, zt * spec.thickness_sigma, "seed {seed}");
            }
        }
    }

    #[test]
    fn shield_config_is_preserved() {
        let spec = VariationSpec::typical();
        let mut rng = SplitMix64::new(9);
        let base = base_block().with_shield(rlcx_geom::ShieldConfig::PlaneBelow);
        let (b, _, _) = spec.sample_block(&base, &mut rng).unwrap();
        assert_eq!(b.shield(), rlcx_geom::ShieldConfig::PlaneBelow);
    }
}
