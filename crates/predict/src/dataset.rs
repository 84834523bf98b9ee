//! Sliding-window autoregressive datasets.
//!
//! All three predictors are trained the same way the paper trains them: the
//! last `w` samples of the (per-module) temperature series are the features
//! and the sample `h` steps ahead is the target.

use crate::error::PredictError;

/// An autoregressive design matrix built from a scalar series.
///
/// # Examples
///
/// ```
/// use teg_predict::SlidingWindowDataset;
///
/// # fn main() -> Result<(), teg_predict::PredictError> {
/// let series = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let ds = SlidingWindowDataset::build(&series, 3, 1)?;
/// assert_eq!(ds.len(), 3);
/// // First sample: features [1,2,3] → target 4.
/// assert_eq!(ds.features()[0], vec![1.0, 2.0, 3.0]);
/// assert_eq!(ds.targets()[0], 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowDataset {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
    window: usize,
    horizon: usize,
}

impl SlidingWindowDataset {
    /// Builds the dataset from a series with the given window length and
    /// prediction horizon (both in samples, horizon ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidParameter`] if the window or horizon is
    /// zero, and [`PredictError::InsufficientData`] if the series is too
    /// short to produce at least one sample.
    pub fn build(series: &[f64], window: usize, horizon: usize) -> Result<Self, PredictError> {
        if window == 0 {
            return Err(PredictError::InvalidParameter {
                name: "window",
                value: 0.0,
            });
        }
        if horizon == 0 {
            return Err(PredictError::InvalidParameter {
                name: "horizon",
                value: 0.0,
            });
        }
        let needed = window + horizon;
        if series.len() < needed {
            return Err(PredictError::InsufficientData {
                needed,
                available: series.len(),
            });
        }
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for start in 0..=(series.len() - needed) {
            features.push(series[start..start + window].to_vec());
            targets.push(series[start + window + horizon - 1]);
        }
        Ok(Self {
            features,
            targets,
            window,
            horizon,
        })
    }

    /// Number of (feature, target) samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` when the dataset holds no samples (never the case for a
    /// successfully built dataset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The feature rows (each of length `window`).
    #[must_use]
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The prediction targets.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Window length used to build the dataset.
    #[must_use]
    pub const fn window(&self) -> usize {
        self.window
    }

    /// Prediction horizon used to build the dataset.
    #[must_use]
    pub const fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_expected_samples_for_horizon_two() {
        let series = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let ds = SlidingWindowDataset::build(&series, 2, 2).unwrap();
        // windows: [10,11]→13, [11,12]→14, [12,13]→15
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.features()[0], vec![10.0, 11.0]);
        assert_eq!(ds.targets()[0], 13.0);
        assert_eq!(ds.features()[2], vec![12.0, 13.0]);
        assert_eq!(ds.targets()[2], 15.0);
        assert_eq!(ds.window(), 2);
        assert_eq!(ds.horizon(), 2);
        assert!(!ds.is_empty());
    }

    #[test]
    fn rejects_invalid_parameters() {
        let series = [1.0; 10];
        assert!(SlidingWindowDataset::build(&series, 0, 1).is_err());
        assert!(SlidingWindowDataset::build(&series, 3, 0).is_err());
        assert!(matches!(
            SlidingWindowDataset::build(&series[..3], 3, 1).unwrap_err(),
            PredictError::InsufficientData {
                needed: 4,
                available: 3
            }
        ));
    }

    #[test]
    fn exactly_enough_data_yields_one_sample() {
        let series = [1.0, 2.0, 3.0, 4.0];
        let ds = SlidingWindowDataset::build(&series, 3, 1).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.targets(), &[4.0]);
    }

    proptest! {
        /// Every feature window is a contiguous slice of the series and every
        /// target is the sample `horizon` steps after the window.
        #[test]
        fn prop_samples_are_consistent(
            series in proptest::collection::vec(-100.0_f64..100.0, 5..60),
            window in 1usize..6,
            horizon in 1usize..4,
        ) {
            prop_assume!(series.len() >= window + horizon);
            let ds = SlidingWindowDataset::build(&series, window, horizon).unwrap();
            prop_assert_eq!(ds.len(), series.len() - window - horizon + 1);
            for (i, (feat, &target)) in ds.features().iter().zip(ds.targets()).enumerate() {
                prop_assert_eq!(feat.as_slice(), &series[i..i + window]);
                prop_assert_eq!(target, series[i + window + horizon - 1]);
            }
        }
    }
}
