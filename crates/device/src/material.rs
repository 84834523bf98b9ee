//! Thermoelectric material models.
//!
//! A TEG module is a stack of semiconductor couples; its Seebeck coefficient
//! and electrical resistance inherit a mild temperature dependence from the
//! material.  The paper treats α and R_teg as constants (Eq. 2); this module
//! keeps that as the default (zero temperature coefficients) but exposes the
//! dependence so sensitivity studies can enable it.

use teg_units::TemperatureDelta;

use crate::error::DeviceError;

/// Seebeck and resistance behaviour of the thermoelectric couple material.
///
/// # Examples
///
/// ```
/// use teg_device::ThermoelectricMaterial;
///
/// let mat = ThermoelectricMaterial::bismuth_telluride();
/// assert!(mat.seebeck_per_couple(50.0) > 3.0e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermoelectricMaterial {
    seebeck_v_per_k: f64,
    seebeck_temp_coeff: f64,
    resistance_temp_coeff: f64,
}

impl ThermoelectricMaterial {
    /// Bismuth-telluride (Bi₂Te₃), the material of virtually every commercial
    /// low-temperature TEG module including the TGM-199-1.4-0.8.
    ///
    /// The per-couple Seebeck coefficient of a p-n couple is roughly
    /// 400 µV/K near room temperature.
    #[must_use]
    pub fn bismuth_telluride() -> Self {
        Self {
            seebeck_v_per_k: 4.0e-4,
            seebeck_temp_coeff: 0.0,
            resistance_temp_coeff: 0.0,
        }
    }

    /// Bismuth-telluride with representative temperature coefficients
    /// enabled: the Seebeck coefficient rises and the resistance grows with
    /// the mean junction temperature.
    #[must_use]
    pub fn bismuth_telluride_with_drift() -> Self {
        Self {
            seebeck_v_per_k: 4.0e-4,
            seebeck_temp_coeff: 4.0e-4,
            resistance_temp_coeff: 2.5e-3,
        }
    }

    /// Creates a custom material.
    ///
    /// `seebeck_v_per_k` is the per-couple Seebeck coefficient at ΔT = 0,
    /// `seebeck_temp_coeff` and `resistance_temp_coeff` are relative changes
    /// per kelvin of ΔT.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the Seebeck coefficient is
    /// not strictly positive, and [`DeviceError::NonFiniteInput`] for
    /// non-finite arguments.
    pub fn new(
        seebeck_v_per_k: f64,
        seebeck_temp_coeff: f64,
        resistance_temp_coeff: f64,
    ) -> Result<Self, DeviceError> {
        if !seebeck_v_per_k.is_finite()
            || !seebeck_temp_coeff.is_finite()
            || !resistance_temp_coeff.is_finite()
        {
            return Err(DeviceError::NonFiniteInput {
                what: "material coefficients",
            });
        }
        if seebeck_v_per_k <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "seebeck coefficient",
                value: seebeck_v_per_k,
            });
        }
        Ok(Self {
            seebeck_v_per_k,
            seebeck_temp_coeff,
            resistance_temp_coeff,
        })
    }

    /// Per-couple Seebeck coefficient in V/K at the given ΔT (in kelvin).
    #[must_use]
    pub fn seebeck_per_couple(&self, delta_t_kelvin: f64) -> f64 {
        seebeck_at(
            self.seebeck_v_per_k,
            self.seebeck_temp_coeff,
            delta_t_kelvin,
        )
    }

    /// Relative resistance multiplier at the given ΔT, normalised to 1 at
    /// ΔT = 0.
    #[must_use]
    pub fn resistance_factor(&self, delta_t: TemperatureDelta) -> f64 {
        resistance_factor_at(self.resistance_temp_coeff, delta_t.kelvin())
    }

    /// The Seebeck coefficient at ΔT = 0 and the relative Seebeck and
    /// resistance drifts per kelvin, in that order.
    pub(crate) const fn coefficients(&self) -> (f64, f64, f64) {
        (
            self.seebeck_v_per_k,
            self.seebeck_temp_coeff,
            self.resistance_temp_coeff,
        )
    }
}

/// `α(ΔT) = α₀·(1 + drift·max(ΔT, 0))`, the formula behind
/// [`ThermoelectricMaterial::seebeck_per_couple`].
#[inline]
pub(crate) fn seebeck_at(seebeck_v_per_k: f64, drift: f64, delta_t_kelvin: f64) -> f64 {
    seebeck_v_per_k * (1.0 + drift * delta_t_kelvin.max(0.0))
}

/// `1 + drift·max(ΔT, 0)`, the formula behind
/// [`ThermoelectricMaterial::resistance_factor`].
#[inline]
pub(crate) fn resistance_factor_at(drift: f64, delta_t_kelvin: f64) -> f64 {
    1.0 + drift * delta_t_kelvin.max(0.0)
}

impl Default for ThermoelectricMaterial {
    fn default() -> Self {
        Self::bismuth_telluride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_material_has_constant_coefficients() {
        let mat = ThermoelectricMaterial::default();
        assert_eq!(mat.seebeck_per_couple(0.0), mat.seebeck_per_couple(100.0));
        assert_eq!(mat.resistance_factor(TemperatureDelta::new(80.0)), 1.0);
    }

    #[test]
    fn drift_material_changes_with_temperature() {
        let mat = ThermoelectricMaterial::bismuth_telluride_with_drift();
        assert!(mat.seebeck_per_couple(100.0) > mat.seebeck_per_couple(0.0));
        assert!(mat.resistance_factor(TemperatureDelta::new(100.0)) > 1.2);
        // Negative ΔT is clamped rather than extrapolated.
        assert_eq!(mat.resistance_factor(TemperatureDelta::new(-20.0)), 1.0);
        assert_eq!(mat.seebeck_per_couple(-20.0), mat.seebeck_per_couple(0.0));
    }

    #[test]
    fn custom_material_validation() {
        assert!(ThermoelectricMaterial::new(2.0e-4, 0.0, 0.0).is_ok());
        assert!(matches!(
            ThermoelectricMaterial::new(0.0, 0.0, 0.0),
            Err(DeviceError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ThermoelectricMaterial::new(-1.0e-4, 0.0, 0.0),
            Err(DeviceError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ThermoelectricMaterial::new(f64::NAN, 0.0, 0.0),
            Err(DeviceError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn bismuth_telluride_seebeck_magnitude() {
        // Per-couple Seebeck of Bi2Te3 is a few hundred µV/K.
        let s = ThermoelectricMaterial::bismuth_telluride().seebeck_per_couple(50.0);
        assert!(
            s > 1.0e-4 && s < 1.0e-3,
            "implausible Seebeck coefficient {s}"
        );
    }
}
