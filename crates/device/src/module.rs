//! The per-module TEG electrical model (Eq. 2 of the paper).

use teg_units::{Amps, Ohms, TemperatureDelta, Volts, Watts};

use crate::datasheet::TegDatasheet;
use crate::error::DeviceError;
use crate::material::{resistance_factor_at, seebeck_at, ThermoelectricMaterial};
use crate::mpp::MppPoint;

/// The seven per-module scalars Eq. 2 reads, as one plain record.
///
/// An array copies them into one column per field, so a whole ΔT row runs
/// through [`open_circuit_emf`] and [`internal_resistance_ohms`] in a
/// single loop; [`TegModule`] calls the same two functions one module at a
/// time, so both layouts give the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleCoefficients {
    /// Per-couple Seebeck coefficient at ΔT = 0, in V/K.
    pub seebeck: f64,
    /// Relative Seebeck drift per kelvin of ΔT.
    pub seebeck_drift: f64,
    /// Manufacturing scale on the Seebeck coefficient.
    pub seebeck_scale: f64,
    /// Number of couples, as a float.
    pub couples: f64,
    /// Internal resistance at ΔT = 0 before scaling, in ohms.
    pub base_resistance: f64,
    /// Relative resistance drift per kelvin of ΔT.
    pub resistance_drift: f64,
    /// Manufacturing scale on the internal resistance.
    pub resistance_scale: f64,
}

/// Open-circuit EMF `E = α(ΔT)·ΔT·N_cpl` in volts, with ΔT clamped at zero.
///
/// This is the one formula behind [`TegModule::open_circuit_voltage`] and
/// the array's per-row Norton-term kernel.
#[inline]
#[must_use]
pub fn open_circuit_emf(
    seebeck: f64,
    seebeck_drift: f64,
    seebeck_scale: f64,
    couples: f64,
    delta_t_kelvin: f64,
) -> f64 {
    let dt = delta_t_kelvin.max(0.0);
    let alpha = seebeck_at(seebeck, seebeck_drift, dt) * seebeck_scale;
    alpha * dt * couples
}

/// Internal resistance `R_teg(ΔT)` in ohms.
///
/// This is the one formula behind [`TegModule::internal_resistance`] and
/// the array's per-row Norton-term kernel.
#[inline]
#[must_use]
pub fn internal_resistance_ohms(
    base_resistance: f64,
    resistance_drift: f64,
    resistance_scale: f64,
    delta_t_kelvin: f64,
) -> f64 {
    base_resistance * (resistance_factor_at(resistance_drift, delta_t_kelvin) * resistance_scale)
}

/// A single thermoelectric generator module.
///
/// The module is a Thévenin source: an EMF `E = α·ΔT·N_cpl` behind an
/// internal resistance `R_teg`.  All electrical queries (operating point under
/// a resistive load, under an imposed current, the MPP) follow from those two
/// numbers, which is exactly the model of the paper's Eq. 2 and of the prior
/// reconfiguration work it builds on.
///
/// # Examples
///
/// ```
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_units::{Ohms, TemperatureDelta};
///
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let dt = TemperatureDelta::new(80.0);
/// // Matched load extracts the maximum power.
/// let matched = module.power_at_load(dt, module.internal_resistance(dt));
/// let mismatched = module.power_at_load(dt, Ohms::new(10.0));
/// assert!(matched > mismatched);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TegModule {
    couple_count: u32,
    material: ThermoelectricMaterial,
    base_resistance: Ohms,
    seebeck_scale: f64,
    resistance_scale: f64,
}

impl TegModule {
    /// Builds a module straight from a datasheet with the default
    /// bismuth-telluride material (constant coefficients, as in the paper).
    #[must_use]
    pub fn from_datasheet(datasheet: &TegDatasheet) -> Self {
        Self {
            couple_count: datasheet.couple_count(),
            material: ThermoelectricMaterial::default(),
            base_resistance: Ohms::new(datasheet.internal_resistance_ohms()),
            seebeck_scale: datasheet.seebeck_per_couple()
                / ThermoelectricMaterial::default().seebeck_per_couple(0.0),
            resistance_scale: 1.0,
        }
    }

    /// Builds a module from a datasheet and an explicit material model.
    #[must_use]
    pub fn with_material(datasheet: &TegDatasheet, material: ThermoelectricMaterial) -> Self {
        Self {
            couple_count: datasheet.couple_count(),
            material,
            base_resistance: Ohms::new(datasheet.internal_resistance_ohms()),
            seebeck_scale: 1.0,
            resistance_scale: 1.0,
        }
    }

    /// Returns a copy of the module with its Seebeck coefficient and internal
    /// resistance scaled by the given relative factors.
    ///
    /// This is the hook used by [`VariationModel`](crate::VariationModel) to
    /// inject manufacturing spread.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if either factor is not
    /// strictly positive, or [`DeviceError::NonFiniteInput`] if not finite.
    pub fn scaled(&self, seebeck_factor: f64, resistance_factor: f64) -> Result<Self, DeviceError> {
        if !seebeck_factor.is_finite() || !resistance_factor.is_finite() {
            return Err(DeviceError::NonFiniteInput {
                what: "scaling factors",
            });
        }
        if seebeck_factor <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "seebeck factor",
                value: seebeck_factor,
            });
        }
        if resistance_factor <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "resistance factor",
                value: resistance_factor,
            });
        }
        let mut out = self.clone();
        out.seebeck_scale *= seebeck_factor;
        out.resistance_scale *= resistance_factor;
        Ok(out)
    }

    /// Number of thermoelectric couples in the module.
    #[must_use]
    pub const fn couple_count(&self) -> u32 {
        self.couple_count
    }

    /// The scalars Eq. 2 reads from this module.
    #[must_use]
    pub const fn coefficients(&self) -> ModuleCoefficients {
        let (seebeck, seebeck_drift, resistance_drift) = self.material.coefficients();
        ModuleCoefficients {
            seebeck,
            seebeck_drift,
            seebeck_scale: self.seebeck_scale,
            couples: self.couple_count as f64,
            base_resistance: self.base_resistance.value(),
            resistance_drift,
            resistance_scale: self.resistance_scale,
        }
    }

    /// Open-circuit (Seebeck) voltage `E = α·ΔT·N_cpl` at the given ΔT.
    ///
    /// Negative ΔT is clamped to zero: the harvesting model never operates a
    /// module in cooling mode.
    #[must_use]
    pub fn open_circuit_voltage(&self, delta_t: TemperatureDelta) -> Volts {
        let c = self.coefficients();
        Volts::new(open_circuit_emf(
            c.seebeck,
            c.seebeck_drift,
            c.seebeck_scale,
            c.couples,
            delta_t.kelvin(),
        ))
    }

    /// Internal resistance `R_teg` at the given ΔT.
    #[must_use]
    pub fn internal_resistance(&self, delta_t: TemperatureDelta) -> Ohms {
        let c = self.coefficients();
        Ohms::new(internal_resistance_ohms(
            c.base_resistance,
            c.resistance_drift,
            c.resistance_scale,
            delta_t.kelvin(),
        ))
    }

    /// Internal conductance `1 / R_teg` at the given ΔT, used by the array
    /// solver when combining parallel modules.
    #[must_use]
    pub fn internal_conductance(&self, delta_t: TemperatureDelta) -> f64 {
        1.0 / self.internal_resistance(delta_t).value()
    }

    /// Terminal voltage when the module is forced to source the given
    /// current: `V = E − I·R_teg`.
    ///
    /// The value may be negative if the imposed current exceeds the
    /// short-circuit current; the array solver relies on this linearity.
    #[must_use]
    pub fn voltage_at_current(&self, delta_t: TemperatureDelta, current: Amps) -> Volts {
        self.open_circuit_voltage(delta_t) - current * self.internal_resistance(delta_t)
    }

    /// Current delivered into a resistive load: `I = E / (R_teg + R_load)`.
    ///
    /// # Panics
    ///
    /// Panics if the load resistance is negative.
    #[must_use]
    pub fn current_at_load(&self, delta_t: TemperatureDelta, load: Ohms) -> Amps {
        assert!(load.value() >= 0.0, "load resistance must be non-negative");
        let e = self.open_circuit_voltage(delta_t);
        let r = self.internal_resistance(delta_t);
        Amps::new(e.value() / (r.value() + load.value()))
    }

    /// Power delivered into a resistive load: `P = I²·R_load` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if the load resistance is negative.
    #[must_use]
    pub fn power_at_load(&self, delta_t: TemperatureDelta, load: Ohms) -> Watts {
        let i = self.current_at_load(delta_t, load);
        Watts::new(i.value() * i.value() * load.value())
    }

    /// Power delivered when the module is forced to source the given current:
    /// `P = V·I = (E − I·R)·I`.
    #[must_use]
    pub fn power_at_current(&self, delta_t: TemperatureDelta, current: Amps) -> Watts {
        self.voltage_at_current(delta_t, current) * current
    }

    /// Short-circuit current `E / R_teg`.
    #[must_use]
    pub fn short_circuit_current(&self, delta_t: TemperatureDelta) -> Amps {
        self.open_circuit_voltage(delta_t) / self.internal_resistance(delta_t)
    }

    /// Maximum power point at the given ΔT (matched load).
    #[must_use]
    pub fn mpp(&self, delta_t: TemperatureDelta) -> MppPoint {
        let e = self.open_circuit_voltage(delta_t);
        let r = self.internal_resistance(delta_t);
        MppPoint::new(e / 2.0, Amps::new(e.value() / (2.0 * r.value())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn module() -> TegModule {
        TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8())
    }

    #[test]
    fn open_circuit_voltage_is_linear_in_delta_t() {
        let m = module();
        let v40 = m.open_circuit_voltage(TemperatureDelta::new(40.0));
        let v80 = m.open_circuit_voltage(TemperatureDelta::new(80.0));
        assert!((v80.value() - 2.0 * v40.value()).abs() < 1e-9);
    }

    #[test]
    fn negative_delta_t_produces_no_voltage() {
        let m = module();
        assert_eq!(
            m.open_circuit_voltage(TemperatureDelta::new(-10.0)),
            Volts::ZERO
        );
        assert_eq!(m.mpp(TemperatureDelta::new(-10.0)).power(), Watts::ZERO);
    }

    #[test]
    fn mpp_is_half_open_circuit_voltage() {
        let m = module();
        let dt = TemperatureDelta::new(65.0);
        let mpp = m.mpp(dt);
        let e = m.open_circuit_voltage(dt);
        assert!((mpp.voltage().value() - e.value() / 2.0).abs() < 1e-12);
        assert!((mpp.current().value() - e.value() / (2.0 * 2.5)).abs() < 1e-9);
        // P_mpp = E²/(4R)
        assert!((mpp.power().value() - e.value() * e.value() / 10.0).abs() < 1e-9);
    }

    #[test]
    fn matched_load_reaches_the_mpp() {
        let m = module();
        let dt = TemperatureDelta::new(70.0);
        let r = m.internal_resistance(dt);
        let p_matched = m.power_at_load(dt, r);
        let mpp = m.mpp(dt);
        assert!((p_matched.value() - mpp.power().value()).abs() < 1e-9);
    }

    #[test]
    fn mismatched_loads_lose_power() {
        let m = module();
        let dt = TemperatureDelta::new(70.0);
        let p_mpp = m.mpp(dt).power();
        for load in [0.1_f64, 0.5, 1.0, 5.0, 10.0, 50.0] {
            let p = m.power_at_load(dt, Ohms::new(load));
            assert!(
                p.value() <= p_mpp.value() + 1e-9,
                "load {load} exceeded MPP"
            );
        }
    }

    #[test]
    fn voltage_at_current_is_linear() {
        let m = module();
        let dt = TemperatureDelta::new(50.0);
        let e = m.open_circuit_voltage(dt);
        let r = m.internal_resistance(dt);
        let v = m.voltage_at_current(dt, Amps::new(0.4));
        assert!((v.value() - (e.value() - 0.4 * r.value())).abs() < 1e-12);
        // At short-circuit current the terminal voltage collapses to zero.
        let isc = m.short_circuit_current(dt);
        assert!(m.voltage_at_current(dt, isc).value().abs() < 1e-9);
    }

    #[test]
    fn power_at_current_matches_load_formulation() {
        let m = module();
        let dt = TemperatureDelta::new(90.0);
        let load = Ohms::new(3.3);
        let i = m.current_at_load(dt, load);
        let p_load = m.power_at_load(dt, load);
        let p_current = m.power_at_current(dt, i);
        assert!((p_load.value() - p_current.value()).abs() < 1e-9);
    }

    #[test]
    fn scaled_module_shifts_parameters() {
        let m = module();
        let dt = TemperatureDelta::new(60.0);
        let hot = m.scaled(1.1, 0.9).unwrap();
        assert!(hot.open_circuit_voltage(dt) > m.open_circuit_voltage(dt));
        assert!(hot.internal_resistance(dt) < m.internal_resistance(dt));
        assert!(m.scaled(0.0, 1.0).is_err());
        assert!(m.scaled(1.0, -1.0).is_err());
        assert!(m.scaled(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn with_material_drift_raises_resistance_when_hot() {
        let ds = TegDatasheet::tgm_199_1_4_0_8();
        let drifting =
            TegModule::with_material(&ds, ThermoelectricMaterial::bismuth_telluride_with_drift());
        let cold = drifting.internal_resistance(TemperatureDelta::new(10.0));
        let hot = drifting.internal_resistance(TemperatureDelta::new(110.0));
        assert!(hot > cold);
    }

    #[test]
    #[should_panic(expected = "load resistance must be non-negative")]
    fn negative_load_is_rejected() {
        let _ = module().power_at_load(TemperatureDelta::new(50.0), Ohms::new(-1.0));
    }

    proptest! {
        /// The MPP really is the maximum over all resistive loads.
        #[test]
        fn prop_mpp_dominates_all_loads(dt in 1.0_f64..150.0, load in 0.01_f64..100.0) {
            let m = module();
            let p = m.power_at_load(TemperatureDelta::new(dt), Ohms::new(load));
            let p_mpp = m.mpp(TemperatureDelta::new(dt)).power();
            prop_assert!(p.value() <= p_mpp.value() + 1e-9);
        }

        /// Power under an imposed current is a concave parabola that is
        /// non-negative between zero and the short-circuit current.
        #[test]
        fn prop_power_non_negative_below_short_circuit(
            dt in 1.0_f64..150.0,
            frac in 0.0_f64..1.0,
        ) {
            let m = module();
            let delta = TemperatureDelta::new(dt);
            let isc = m.short_circuit_current(delta);
            let p = m.power_at_current(delta, isc * frac);
            prop_assert!(p.value() >= -1e-9);
        }

        /// Open-circuit voltage scales linearly with ΔT.
        #[test]
        fn prop_voc_linear(dt in 0.0_f64..150.0, k in 0.1_f64..3.0) {
            let m = module();
            let a = m.open_circuit_voltage(TemperatureDelta::new(dt)).value();
            let b = m.open_circuit_voltage(TemperatureDelta::new(dt * k)).value();
            prop_assert!((b - a * k).abs() < 1e-7 * (1.0 + a.abs() * k));
        }
    }
}
