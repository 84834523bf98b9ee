//! The per-row Norton-term kernel.
//!
//! Every solve starts by turning a ΔT row into per-module terms: the
//! conductance `G = 1/R`, the EMF `E` and, for the reconfiguration scans,
//! the MPP current `I_MPP = E/(2R)`.  [`TegArray`](crate::TegArray) keeps its
//! modules' Eq. 2 coefficients as one column per field, so a row is one
//! branch-free loop over contiguous slices.  Each element goes through
//! [`open_circuit_emf`] and [`internal_resistance_ohms`], the functions
//! [`TegModule`] itself calls, so the kernel and the per-module methods give
//! the same bits.

use teg_device::{internal_resistance_ohms, open_circuit_emf, TegModule};
use teg_units::{Amps, TemperatureDelta};

/// Eq. 2 coefficients of every module, one column per field.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CoefficientColumns {
    seebeck: Vec<f64>,
    seebeck_drift: Vec<f64>,
    seebeck_scale: Vec<f64>,
    couples: Vec<f64>,
    base_resistance: Vec<f64>,
    resistance_drift: Vec<f64>,
    resistance_scale: Vec<f64>,
}

impl CoefficientColumns {
    pub(crate) fn from_modules(modules: &[TegModule]) -> Self {
        let mut columns = Self::default();
        for module in modules {
            let c = module.coefficients();
            columns.seebeck.push(c.seebeck);
            columns.seebeck_drift.push(c.seebeck_drift);
            columns.seebeck_scale.push(c.seebeck_scale);
            columns.couples.push(c.couples);
            columns.base_resistance.push(c.base_resistance);
            columns.resistance_drift.push(c.resistance_drift);
            columns.resistance_scale.push(c.resistance_scale);
        }
        columns
    }

    /// The row kernel: `g[i] = 1/R_i` and `ge[i] = G_i·(E_i·f_i)` for every
    /// module, where `f_i` is the EMF derating factor (`None` means 1.0
    /// everywhere; multiplying by 1.0 is exact, so both give the same bits
    /// for a healthy module).  Every slice must cover the array.
    pub(crate) fn fill(
        &self,
        deltas: &[TemperatureDelta],
        emf_factor: Option<&[f64]>,
        g: &mut [f64],
        ge: &mut [f64],
    ) {
        let row = self.row(deltas);
        let n = row.deltas.len();
        let (g, ge) = (&mut g[..n], &mut ge[..n]);
        match emf_factor {
            None => {
                for i in 0..n {
                    let (e, r) = row.terms(i);
                    let conductance = 1.0 / r;
                    g[i] = conductance;
                    ge[i] = conductance * e;
                }
            }
            Some(factor) => {
                let factor = &factor[..n];
                for i in 0..n {
                    let (e, r) = row.terms(i);
                    let conductance = 1.0 / r;
                    g[i] = conductance;
                    ge[i] = conductance * (e * factor[i]);
                }
            }
        }
    }

    /// [`CoefficientColumns::fill`] for a healthy row that also writes
    /// `mpp[i] = E_i/(2R_i)` and returns `Σ E_i/2`, the summed module MPP
    /// voltages, added in module order.
    pub(crate) fn fill_with_mpp(
        &self,
        deltas: &[TemperatureDelta],
        g: &mut [f64],
        ge: &mut [f64],
        mpp: &mut [Amps],
    ) -> f64 {
        let row = self.row(deltas);
        let n = row.deltas.len();
        let (g, ge, mpp) = (&mut g[..n], &mut ge[..n], &mut mpp[..n]);
        let mut vmpp_sum = 0.0;
        for i in 0..n {
            let (e, r) = row.terms(i);
            let conductance = 1.0 / r;
            g[i] = conductance;
            ge[i] = conductance * e;
            mpp[i] = Amps::new(e / (2.0 * r));
            vmpp_sum += e / 2.0;
        }
        vmpp_sum
    }

    /// The columns and the ΔT row, every slice cut to the module count so
    /// the kernel loops carry no bounds checks and vectorise.
    fn row<'a>(&'a self, deltas: &'a [TemperatureDelta]) -> Row<'a> {
        let n = self.seebeck.len();
        Row {
            deltas: &deltas[..n],
            seebeck: &self.seebeck[..n],
            seebeck_drift: &self.seebeck_drift[..n],
            seebeck_scale: &self.seebeck_scale[..n],
            couples: &self.couples[..n],
            base_resistance: &self.base_resistance[..n],
            resistance_drift: &self.resistance_drift[..n],
            resistance_scale: &self.resistance_scale[..n],
        }
    }
}

/// One ΔT row beside the coefficient columns, all of one length.
struct Row<'a> {
    deltas: &'a [TemperatureDelta],
    seebeck: &'a [f64],
    seebeck_drift: &'a [f64],
    seebeck_scale: &'a [f64],
    couples: &'a [f64],
    base_resistance: &'a [f64],
    resistance_drift: &'a [f64],
    resistance_scale: &'a [f64],
}

impl Row<'_> {
    /// `(E, R)` of module `i` at its ΔT.
    #[inline(always)]
    fn terms(&self, i: usize) -> (f64, f64) {
        let dt = self.deltas[i].kelvin();
        let e = open_circuit_emf(
            self.seebeck[i],
            self.seebeck_drift[i],
            self.seebeck_scale[i],
            self.couples[i],
            dt,
        );
        let r = internal_resistance_ohms(
            self.base_resistance[i],
            self.resistance_drift[i],
            self.resistance_scale[i],
            dt,
        );
        (e, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teg_device::{TegDatasheet, ThermoelectricMaterial};

    /// A non-uniform chain: datasheet modules, drifting-material modules,
    /// and both kinds scaled by per-module factors.
    fn mixed_modules(n: usize, seebeck_spread: f64, resistance_spread: f64) -> Vec<TegModule> {
        let datasheet = TegDatasheet::tgm_199_1_4_0_8();
        let plain = TegModule::from_datasheet(&datasheet);
        let drifting = TegModule::with_material(
            &datasheet,
            ThermoelectricMaterial::bismuth_telluride_with_drift(),
        );
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { &plain } else { &drifting };
                let k = i as f64 / n as f64;
                base.scaled(
                    1.0 + seebeck_spread * (k - 0.5),
                    1.0 + resistance_spread * (0.5 - k),
                )
                .expect("factors stay positive")
            })
            .collect()
    }

    /// ΔT values covering zero (both signs), negative, tiny, ordinary and
    /// large differences.
    fn edge_deltas(n: usize, base: f64, pick: u64) -> Vec<TemperatureDelta> {
        const EDGES: [f64; 8] = [0.0, -0.0, -12.5, 1e-300, 5e-324, 1e-9, 1e6, 350.0];
        (0..n)
            .map(|i| {
                if (pick >> (i % 64)) & 1 == 1 {
                    TemperatureDelta::new(EDGES[i % EDGES.len()])
                } else {
                    TemperatureDelta::new(base - 1.7 * i as f64)
                }
            })
            .collect()
    }

    proptest! {
        /// The row kernel reproduces `internal_conductance`,
        /// `open_circuit_voltage` and `mpp` of every module bit for bit.
        #[test]
        fn prop_kernel_matches_the_module_methods_bitwise(
            n in 1usize..40,
            base in -20.0_f64..150.0,
            pick in 0u64..u64::MAX,
            seebeck_spread in 0.0_f64..0.4,
            resistance_spread in 0.0_f64..0.4,
        ) {
            let modules = mixed_modules(n, seebeck_spread, resistance_spread);
            let deltas = edge_deltas(n, base, pick);
            let columns = CoefficientColumns::from_modules(&modules);
            let (mut g, mut ge) = (vec![0.0; n], vec![0.0; n]);
            let mut mpp = vec![Amps::ZERO; n];
            let vmpp_sum = columns.fill_with_mpp(&deltas, &mut g, &mut ge, &mut mpp);
            let mut expected_sum = 0.0;
            for (i, (module, &dt)) in modules.iter().zip(&deltas).enumerate() {
                let e = module.open_circuit_voltage(dt).value();
                let conductance = module.internal_conductance(dt);
                let point = module.mpp(dt);
                prop_assert_eq!(g[i].to_bits(), conductance.to_bits());
                prop_assert_eq!(ge[i].to_bits(), (conductance * e).to_bits());
                prop_assert_eq!(mpp[i].value().to_bits(), point.current().value().to_bits());
                expected_sum += point.voltage().value();
            }
            prop_assert_eq!(vmpp_sum.to_bits(), expected_sum.to_bits());

            // Without MPP currents, or with unit EMF factors, the terms are
            // the same bits.
            let (mut g2, mut ge2) = (vec![0.0; n], vec![0.0; n]);
            columns.fill(&deltas, None, &mut g2, &mut ge2);
            prop_assert_eq!(&g2, &g);
            prop_assert_eq!(&ge2, &ge);
            columns.fill(&deltas, Some(&vec![1.0; n]), &mut g2, &mut ge2);
            prop_assert_eq!(&g2, &g);
            prop_assert_eq!(&ge2, &ge);
        }
    }
}
