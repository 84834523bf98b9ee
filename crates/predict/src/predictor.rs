//! The common interface all three prediction methods implement.

use crate::error::PredictError;

/// A single-series forecaster: fit on a history, then forecast the next few
/// samples from the most recent window.
///
/// DNOR holds one fitted predictor per signal (the coolant inlet temperature
/// is sufficient because the whole distribution is derived from it, but the
/// suite also supports per-module predictors as the paper describes).
///
/// # Examples
///
/// ```
/// use teg_predict::{MultipleLinearRegression, Predictor};
///
/// # fn main() -> Result<(), teg_predict::PredictError> {
/// let series: Vec<f64> = (0..60).map(|i| 90.0 + (i as f64 * 0.1).sin()).collect();
/// let mut model = MultipleLinearRegression::new(4)?;
/// model.fit(&series)?;
/// assert_eq!(model.forecast(&series, 3)?.len(), 3);
/// # Ok(())
/// # }
/// ```
pub trait Predictor {
    /// Human-readable name of the method (used in reports and Fig. 5).
    fn name(&self) -> &'static str;

    /// Length of the autoregressive window the predictor consumes.
    fn window(&self) -> usize;

    /// Fits the predictor to a training series.
    ///
    /// # Errors
    ///
    /// Implementations return [`PredictError::InsufficientData`] when the
    /// series cannot fill a single training window and may return other
    /// [`PredictError`] variants for numerically degenerate inputs.
    fn fit(&mut self, series: &[f64]) -> Result<(), PredictError>;

    /// Returns `true` once the predictor has been fitted.
    fn is_fitted(&self) -> bool;

    /// Predicts the sample one step after the given history window.
    ///
    /// The slice must contain at least [`Predictor::window`] samples; only
    /// the trailing window is used.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NotFitted`] before [`Predictor::fit`] and
    /// [`PredictError::InsufficientData`] for a too-short history.
    fn predict_next(&self, history: &[f64]) -> Result<f64, PredictError>;

    /// Runs the autoregressive recursion in place: the first
    /// [`Predictor::window`] entries of `buffer` hold the history tail
    /// (oldest first) and every later entry is overwritten with
    /// [`Predictor::predict_next`] of the `window` entries before it.  A
    /// caller forecasting many series reuses one buffer and allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Predictor::predict_next`];
    /// [`PredictError::InsufficientData`] when `buffer` is shorter than the
    /// window.
    fn forecast_in_place(&self, buffer: &mut [f64]) -> Result<(), PredictError> {
        let window = self.window();
        if buffer.len() < window {
            return Err(PredictError::InsufficientData {
                needed: window,
                available: buffer.len(),
            });
        }
        for next in window..buffer.len() {
            buffer[next] = self.predict_next(&buffer[next - window..next])?;
        }
        Ok(())
    }

    /// Iteratively forecasts `horizon` future samples by feeding each
    /// prediction back as input (the standard multi-step strategy for
    /// autoregressive models), through [`Predictor::forecast_in_place`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Predictor::predict_next`]; a zero horizon is
    /// rejected as [`PredictError::InvalidParameter`].
    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, PredictError> {
        if horizon == 0 {
            return Err(PredictError::InvalidParameter {
                name: "horizon",
                value: 0.0,
            });
        }
        let window = self.window();
        if history.len() < window {
            return Err(PredictError::InsufficientData {
                needed: window,
                available: history.len(),
            });
        }
        let mut buffer = Vec::with_capacity(window + horizon);
        buffer.extend_from_slice(&history[history.len() - window..]);
        buffer.resize(window + horizon, 0.0);
        self.forecast_in_place(&mut buffer)?;
        buffer.drain(..window);
        Ok(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial persistence predictor used to exercise the trait's default
    /// `forecast` implementation in isolation.
    struct Persistence {
        fitted: bool,
    }

    impl Predictor for Persistence {
        fn name(&self) -> &'static str {
            "persistence"
        }

        fn window(&self) -> usize {
            2
        }

        fn fit(&mut self, series: &[f64]) -> Result<(), PredictError> {
            if series.len() < 2 {
                return Err(PredictError::InsufficientData {
                    needed: 2,
                    available: series.len(),
                });
            }
            self.fitted = true;
            Ok(())
        }

        fn is_fitted(&self) -> bool {
            self.fitted
        }

        fn predict_next(&self, history: &[f64]) -> Result<f64, PredictError> {
            if !self.fitted {
                return Err(PredictError::NotFitted);
            }
            if history.len() < 2 {
                return Err(PredictError::InsufficientData {
                    needed: 2,
                    available: history.len(),
                });
            }
            Ok(history[history.len() - 1])
        }
    }

    #[test]
    fn forecast_repeats_last_value_for_persistence() {
        let mut p = Persistence { fitted: false };
        p.fit(&[1.0, 2.0, 3.0]).unwrap();
        let f = p.forecast(&[1.0, 2.0, 3.0], 4).unwrap();
        assert_eq!(f, vec![3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn forecast_in_place_fills_the_slots_after_the_window() {
        let mut p = Persistence { fitted: false };
        let mut buffer = [1.0, 2.0, 0.0, 0.0];
        assert_eq!(
            p.forecast_in_place(&mut buffer),
            Err(PredictError::NotFitted)
        );
        p.fit(&[1.0, 2.0]).unwrap();
        p.forecast_in_place(&mut buffer).unwrap();
        assert_eq!(buffer, [1.0, 2.0, 2.0, 2.0]);
        assert!(matches!(
            p.forecast_in_place(&mut buffer[..1]),
            Err(PredictError::InsufficientData {
                needed: 2,
                available: 1
            })
        ));
        // A buffer holding only the window has nothing to forecast.
        let mut tail = [5.0, 6.0];
        p.forecast_in_place(&mut tail).unwrap();
        assert_eq!(tail, [5.0, 6.0]);
    }

    #[test]
    fn forecast_validates_inputs() {
        let mut p = Persistence { fitted: false };
        assert!(matches!(
            p.forecast(&[1.0, 2.0], 1),
            Err(PredictError::NotFitted)
        ));
        p.fit(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            p.forecast(&[1.0, 2.0], 0),
            Err(PredictError::InvalidParameter { .. })
        ));
        assert!(matches!(
            p.forecast(&[1.0], 2),
            Err(PredictError::InsufficientData { .. })
        ));
    }
}
