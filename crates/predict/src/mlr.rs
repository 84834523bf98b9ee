//! Multiple linear regression (the predictor the paper selects).

use crate::error::PredictError;
use crate::linalg::{dot, solve};
use crate::predictor::Predictor;

/// Autoregressive multiple linear regression fitted by ridge-regularised
/// normal equations.
///
/// The model predicts the next sample as an affine combination of the last
/// `window` samples:
///
/// ```text
/// ŷ_{t+1} = θ_1·y_{t−w+1} + … + θ_w·y_t + θ_0
/// ```
///
/// A tiny ridge term keeps the system well conditioned when the window
/// columns are nearly collinear, which is always the case for the slowly
/// varying coolant temperature.
///
/// # Examples
///
/// ```
/// use teg_predict::{MultipleLinearRegression, Predictor};
///
/// # fn main() -> Result<(), teg_predict::PredictError> {
/// // A noiseless linear ramp is forecast almost exactly.
/// let series: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
/// let mut mlr = MultipleLinearRegression::new(3)?;
/// mlr.fit(&series)?;
/// let next = mlr.predict_next(&series)?;
/// assert!((next - 100.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultipleLinearRegression {
    window: usize,
    ridge: f64,
    coefficients: Option<Vec<f64>>,
}

impl MultipleLinearRegression {
    /// Creates an (unfitted) model with the given window length and the
    /// default ridge regularisation of `1e-6`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParameter`] if the window is zero.
    pub fn new(window: usize) -> Result<Self, PredictError> {
        Self::with_ridge(window, 1e-6)
    }

    /// Creates a model with an explicit ridge term.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParameter`] if the window is zero or
    /// the ridge term is negative/non-finite.
    pub fn with_ridge(window: usize, ridge: f64) -> Result<Self, PredictError> {
        if window == 0 {
            return Err(PredictError::InvalidParameter {
                name: "window",
                value: 0.0,
            });
        }
        if !ridge.is_finite() || ridge < 0.0 {
            return Err(PredictError::InvalidParameter {
                name: "ridge",
                value: ridge,
            });
        }
        Ok(Self {
            window,
            ridge,
            coefficients: None,
        })
    }

    /// The fitted coefficients (window weights followed by the intercept), if
    /// the model has been fitted.
    #[must_use]
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coefficients.as_deref()
    }
}

/// Accumulates the ridge normal equations `XᵀX + λI` and `Xᵀy` of the
/// bias-augmented sliding-window design straight from the series.
///
/// Row `s` of the design is `series[s..s + window]` followed by `1.0`, with
/// target `series[s + window]`.  One reused row buffer is visited in row
/// order with the same loops as [`gram_matrix`](crate::linalg::gram_matrix)
/// and [`design_times_targets`](crate::linalg::design_times_targets), so
/// every sum is bit-identical to building the dataset first.
fn normal_equations(series: &[f64], window: usize, ridge: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let cols = window + 1;
    let mut gram = vec![vec![0.0; cols]; cols];
    let mut rhs = vec![0.0; cols];
    let mut row = vec![1.0; cols];
    for (s, &y) in series.iter().enumerate().skip(window) {
        row[..window].copy_from_slice(&series[s - window..s]);
        for (gram_row, &x) in gram.iter_mut().zip(&row) {
            for (g, &other) in gram_row.iter_mut().zip(&row) {
                *g += x * other;
            }
        }
        for (r, &x) in rhs.iter_mut().zip(&row) {
            *r += x * y;
        }
    }
    for (i, gram_row) in gram.iter_mut().enumerate() {
        gram_row[i] += ridge;
    }
    (gram, rhs)
}

impl Predictor for MultipleLinearRegression {
    fn name(&self) -> &'static str {
        "MLR"
    }

    fn window(&self) -> usize {
        self.window
    }

    /// Fits by streaming the normal equations from the series: one pass of
    /// `O(len · window²)` with no per-sample allocation.
    fn fit(&mut self, series: &[f64]) -> Result<(), PredictError> {
        if series.len() <= self.window {
            return Err(PredictError::InsufficientData {
                needed: self.window + 1,
                available: series.len(),
            });
        }
        let (gram, rhs) = normal_equations(series, self.window, self.ridge);
        let coefficients = solve(gram, rhs)?;
        self.coefficients = Some(coefficients);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.coefficients.is_some()
    }

    fn predict_next(&self, history: &[f64]) -> Result<f64, PredictError> {
        let Some(coefficients) = &self.coefficients else {
            return Err(PredictError::NotFitted);
        };
        if history.len() < self.window {
            return Err(PredictError::InsufficientData {
                needed: self.window,
                available: history.len(),
            });
        }
        let tail = &history[history.len() - self.window..];
        let weights = &coefficients[..self.window];
        let intercept = coefficients[self.window];
        Ok(dot(tail, weights) + intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SlidingWindowDataset;
    use crate::linalg::{design_times_targets, gram_matrix};
    use crate::metrics::mape;
    use proptest::prelude::*;

    /// The dataset-based fit the streamed normal equations replace: build
    /// the sliding-window dataset, append the bias column, form `XᵀX + λI`
    /// and `Xᵀy`, and solve.
    fn reference_fit(series: &[f64], window: usize, ridge: f64) -> Result<Vec<f64>, PredictError> {
        let dataset = SlidingWindowDataset::build(series, window, 1)?;
        let design: Vec<Vec<f64>> = dataset
            .features()
            .iter()
            .map(|row| {
                let mut r = row.clone();
                r.push(1.0);
                r
            })
            .collect();
        let gram = gram_matrix(&design, ridge);
        let rhs = design_times_targets(&design, dataset.targets());
        solve(gram, rhs)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn construction_validation() {
        assert!(MultipleLinearRegression::new(0).is_err());
        assert!(MultipleLinearRegression::with_ridge(3, -1.0).is_err());
        assert!(MultipleLinearRegression::with_ridge(3, f64::NAN).is_err());
        let m = MultipleLinearRegression::new(3).unwrap();
        assert_eq!(m.window(), 3);
        assert_eq!(m.name(), "MLR");
        assert!(!m.is_fitted());
        assert!(m.coefficients().is_none());
    }

    #[test]
    fn unfitted_model_refuses_to_predict() {
        let m = MultipleLinearRegression::new(3).unwrap();
        assert!(matches!(
            m.predict_next(&[1.0, 2.0, 3.0]),
            Err(PredictError::NotFitted)
        ));
    }

    #[test]
    fn fits_a_linear_ramp_exactly() {
        let series: Vec<f64> = (0..40).map(|i| 5.0 + 0.25 * i as f64).collect();
        let mut m = MultipleLinearRegression::new(4).unwrap();
        m.fit(&series).unwrap();
        assert!(m.is_fitted());
        let next = m.predict_next(&series).unwrap();
        assert!((next - (5.0 + 0.25 * 40.0)).abs() < 1e-6);
        // Multi-step forecasts keep following the ramp.
        let forecast = m.forecast(&series, 5).unwrap();
        for (k, value) in forecast.iter().enumerate() {
            let expected = 5.0 + 0.25 * (40 + k) as f64;
            assert!(
                (value - expected).abs() < 1e-4,
                "step {k}: {value} vs {expected}"
            );
        }
    }

    #[test]
    fn fits_a_constant_series() {
        let series = vec![91.5; 30];
        let mut m = MultipleLinearRegression::new(5).unwrap();
        m.fit(&series).unwrap();
        let next = m.predict_next(&series).unwrap();
        assert!((next - 91.5).abs() < 1e-6);
    }

    #[test]
    fn tracks_a_slow_sinusoid_with_small_error() {
        // Representative of thermostat-regulated coolant temperature
        // oscillation; the 1-step MAPE should be a fraction of a percent, in
        // line with the paper's Fig. 5.
        let series: Vec<f64> = (0..400)
            .map(|i| 92.0 + 3.0 * (i as f64 * 0.05).sin())
            .collect();
        let mut m = MultipleLinearRegression::new(5).unwrap();
        m.fit(&series[..300]).unwrap();
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for t in 300..399 {
            predicted.push(m.predict_next(&series[..t]).unwrap());
            actual.push(series[t]);
        }
        let err = mape(&actual, &predicted).unwrap();
        assert!(err < 0.5, "MLR MAPE {err}% is too large");
    }

    #[test]
    fn too_short_series_is_rejected() {
        let mut m = MultipleLinearRegression::new(5).unwrap();
        assert!(matches!(
            m.fit(&[1.0, 2.0, 3.0]),
            Err(PredictError::InsufficientData { .. })
        ));
        // Fit on something valid, then predict with a short window.
        let series: Vec<f64> = (0..20).map(f64::from).collect();
        m.fit(&series).unwrap();
        assert!(matches!(
            m.predict_next(&[1.0, 2.0]),
            Err(PredictError::InsufficientData { .. })
        ));
    }

    #[test]
    fn streamed_fit_matches_the_dataset_fit_at_the_length_boundary() {
        let mut m = MultipleLinearRegression::new(5).unwrap();
        // `window + 1` samples: the one-row design is still fitted.
        let minimal = [90.0, 90.5, 91.25, 91.0, 92.0, 92.5];
        m.fit(&minimal).unwrap();
        let reference = reference_fit(&minimal, 5, 1e-6).unwrap();
        assert_eq!(bits(m.coefficients().unwrap()), bits(&reference));
        // One sample fewer fails exactly as the dataset does.
        let mut m = MultipleLinearRegression::new(5).unwrap();
        let short = &minimal[..5];
        assert_eq!(
            m.fit(short).unwrap_err(),
            reference_fit(short, 5, 1e-6).unwrap_err()
        );
        assert_eq!(
            m.fit(short).unwrap_err(),
            PredictError::InsufficientData {
                needed: 6,
                available: 5
            }
        );
        assert!(!m.is_fitted());
    }

    #[test]
    fn coefficients_have_window_plus_one_entries() {
        let series: Vec<f64> = (0..30).map(|i| (i as f64).sqrt()).collect();
        let mut m = MultipleLinearRegression::new(6).unwrap();
        m.fit(&series).unwrap();
        assert_eq!(m.coefficients().unwrap().len(), 7);
    }

    proptest! {
        /// Streaming the normal equations from the series gives coefficients
        /// bit-identical to the dataset + `gram_matrix` +
        /// `design_times_targets` + `solve` path, down to the shortest
        /// fittable series (`window + 1` samples), and fails the same way
        /// when the series is too short.
        #[test]
        fn prop_streamed_fit_is_bit_identical_to_the_dataset_fit(
            window in 1usize..8,
            extra in 0usize..40,
            level in 60.0_f64..100.0,
            noise in proptest::collection::vec(-2.0_f64..2.0, 48),
        ) {
            let len = (window + 1 + extra).min(noise.len());
            let series: Vec<f64> = noise[..len]
                .iter()
                .enumerate()
                .map(|(t, n)| level + 0.1 * t as f64 + n)
                .collect();
            let mut m = MultipleLinearRegression::new(window).unwrap();
            match (m.fit(&series), reference_fit(&series, window, 1e-6)) {
                (Ok(()), Ok(reference)) => {
                    prop_assert_eq!(bits(m.coefficients().unwrap()), bits(&reference));
                }
                (Err(streamed), Err(reference)) => prop_assert_eq!(streamed, reference),
                (streamed, reference) => {
                    prop_assert!(false, "streamed {:?} vs reference {:?}", streamed, reference);
                }
            }
            let short = &series[..window];
            prop_assert_eq!(
                m.fit(short).unwrap_err(),
                reference_fit(short, window, 1e-6).unwrap_err()
            );
        }

        /// The in-place recursion reproduces `Predictor::forecast` and a
        /// rolling-window recursion (drop the oldest sample, append the
        /// prediction) bit for bit from the same history tail.
        #[test]
        fn prop_forecast_in_place_matches_forecast(
            window in 1usize..7,
            horizon in 1usize..6,
            series in proptest::collection::vec(80.0_f64..95.0, 20..48),
        ) {
            let mut m = MultipleLinearRegression::new(window).unwrap();
            prop_assume!(m.fit(&series).is_ok());
            let mut rolling = series[series.len() - window..].to_vec();
            let mut expected = Vec::new();
            for _ in 0..horizon {
                let next = m.predict_next(&rolling).unwrap();
                expected.push(next);
                rolling.remove(0);
                rolling.push(next);
            }
            let mut buffer = series[series.len() - window..].to_vec();
            buffer.resize(window + horizon, 0.0);
            m.forecast_in_place(&mut buffer).unwrap();
            prop_assert_eq!(bits(&buffer[window..]), bits(&expected));
            prop_assert_eq!(bits(&m.forecast(&series, horizon).unwrap()), bits(&expected));
        }
    }
}
