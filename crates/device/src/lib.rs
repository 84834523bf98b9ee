//! Thermoelectric generator (TEG) module electrical model.
//!
//! The paper models each TEG module with the standard linear thermoelectric
//! relations (its Eq. 2):
//!
//! ```text
//! E_teg = α · ΔT · N_cpl          (open-circuit / Seebeck voltage)
//! I_teg = E_teg / (R_teg + R_load)
//! P_teg = I_teg² · R_load
//! ```
//!
//! so a module behaves as a Thévenin source whose EMF is proportional to the
//! hot-side/cold-side temperature difference and whose maximum power point
//! (MPP) sits at `R_load = R_teg`, i.e. `V_mpp = E/2`, `I_mpp = E/(2·R_teg)`.
//! Every reconfiguration algorithm in the suite exploits exactly this MPP
//! structure.
//!
//! The crate provides:
//!
//! * [`ThermoelectricMaterial`] — Seebeck coefficient and resistance with
//!   mild temperature dependence (bismuth-telluride preset),
//! * [`TegDatasheet`] — catalogue parameters, with a preset for the
//!   TGM-199-1.4-0.8 module used in the paper's Fig. 1,
//! * [`TegModule`] — the per-module electrical model (open-circuit voltage,
//!   internal resistance, operating point under a load or current, MPP),
//! * [`IvCurve`]/[`curve_family`] — I-V / P-V curve sampling for Fig. 1,
//! * [`VariationModel`] — seeded module-to-module manufacturing variation.
//!
//! # Examples
//!
//! ```
//! use teg_device::{TegDatasheet, TegModule};
//! use teg_units::TemperatureDelta;
//!
//! let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
//! let mpp = module.mpp(TemperatureDelta::new(70.0));
//! assert!(mpp.power().value() > 0.5);
//! // The MPP voltage is half the open-circuit voltage for a Thévenin source.
//! let voc = module.open_circuit_voltage(TemperatureDelta::new(70.0));
//! assert!((mpp.voltage().value() - voc.value() / 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curves;
mod datasheet;
mod error;
mod material;
mod module;
mod mpp;
mod variation;

pub use curves::{curve_family, CurvePoint, IvCurve};
pub use datasheet::TegDatasheet;
pub use error::DeviceError;
pub use material::ThermoelectricMaterial;
pub use module::{internal_resistance_ohms, open_circuit_emf, ModuleCoefficients, TegModule};
pub use mpp::MppPoint;
pub use variation::VariationModel;
