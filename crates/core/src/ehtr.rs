//! EHTR — the prior-work Efficient Heuristic TEG Reconfiguration.
//!
//! The paper compares against the reconfiguration algorithm of Baek et al.
//! (ISLPED 2017), characterising it as near-optimal but `O(N³)` and as
//! reconfiguring on every period.  The original implementation is not
//! public, so this module re-creates an algorithm with the same observable
//! properties: for every feasible group count it finds the boundary placement
//! minimising the squared imbalance of group MPP currents by dynamic
//! programming over all `O(N²)` boundary pairs (cubic once the group count
//! scales with `N`), then picks the group count with the highest array MPP
//! power.  Output quality therefore matches or slightly exceeds INOR while
//! the runtime grows much faster with the array size — exactly the trade-off
//! Table I and the scalability discussion rely on.

use std::time::Instant;

use teg_array::{ArraySolver, Configuration, TegArray};
use teg_units::{Amps, Seconds, TemperatureDelta, Watts};

use crate::error::ReconfigError;
use crate::inor::{InorConfig, RowPass, Scratch};
use crate::memo::DecisionMemo;
use crate::telemetry::TelemetryWindow;
use crate::traits::{ReconfigDecision, Reconfigurer};

/// The dynamic-programming re-implementation of the prior-work heuristic.
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::{Ehtr, Reconfigurer, TelemetryWindow};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 24);
/// let temps: Vec<f64> = (0..24).map(|i| 95.0 - 1.4 * i as f64).collect();
/// let history = vec![temps];
/// let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
/// let current = Configuration::uniform(24, 4).expect("valid");
/// let decision = Ehtr::default().decide(&inputs, &current)?;
/// assert!(decision.evaluated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ehtr {
    config: InorConfig,
    // Last (ΔT row → partition) pair: a 0.5 s period over 1 s steps asks the
    // same question twice per step, and the DP is ~95 % of a decide.
    memo: Option<DecisionMemo>,
    scratch: Scratch,
}

/// The memo and the scratch cache derived state only, so they stay out of
/// scheme identity.
impl PartialEq for Ehtr {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl Ehtr {
    /// Creates EHTR with the same tuning parameters INOR uses (charger,
    /// efficiency floor, period) so comparisons are apples-to-apples.
    #[must_use]
    pub fn new(config: InorConfig) -> Self {
        Self {
            config,
            memo: None,
            scratch: Scratch::default(),
        }
    }

    /// The tuning parameters in use.
    #[must_use]
    pub const fn config(&self) -> &InorConfig {
        &self.config
    }

    /// Optimal (least-squared-imbalance) partition of the chain into `n`
    /// groups, found by dynamic programming over boundary positions.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the number of modules.
    #[must_use]
    pub fn optimal_partition(mpp_currents: &[Amps], n: usize) -> Configuration {
        Self::optimal_partition_with(mpp_currents, n, &mut PartitionScratch::default())
    }

    /// The reference DP over reusable flat tables.
    ///
    /// Every cost is evaluated with the original operation order
    /// (`cost[j-1][k] + ((prefix[i] − prefix[k]) − ideal)²`, strict-`<`
    /// first-minimum scan), so the returned partition is bit-identical to
    /// the nested-table formulation this replaced; the layout change and
    /// the reachability bound below are pure speed.  States `cost[j][i]`
    /// with `i > modules − (n−1−j)` cannot leave a module for each of the
    /// `n−1−j` groups still to come, so neither a later layer nor the
    /// reconstruction ever reads them and the DP skips computing them.
    fn optimal_partition_with(
        mpp_currents: &[Amps],
        n: usize,
        scratch: &mut PartitionScratch,
    ) -> Configuration {
        let modules = mpp_currents.len();
        assert!(
            n >= 1 && n <= modules,
            "group count {n} out of range for {modules} modules"
        );
        let total: f64 = mpp_currents.iter().map(|c| c.value()).sum();
        let ideal = total / n as f64;

        let width = modules + 1;
        let PartitionScratch {
            prefix,
            cost_prev,
            cost_cur,
            choice,
        } = scratch;
        // prefix[i] = sum of the first i currents.
        prefix.clear();
        prefix.reserve(width);
        prefix.push(0.0);
        let mut acc = 0.0;
        for c in mpp_currents {
            acc += c.value();
            prefix.push(acc);
        }
        cost_prev.clear();
        cost_prev.resize(width, f64::INFINITY);
        cost_cur.clear();
        cost_cur.resize(width, f64::INFINITY);
        choice.clear();
        choice.resize(n * width, 0);

        for i in 1..=(modules - (n - 1)) {
            let sum = prefix[i] - prefix[0];
            let d = sum - ideal;
            cost_prev[i] = d * d;
        }
        for j in 1..n {
            let row = j * width;
            let reachable = modules - (n - 1 - j);
            for i in (j + 1)..=reachable {
                let pi = prefix[i];
                let mut best = f64::INFINITY;
                let mut best_k = 0usize;
                for k in j..i {
                    let sum = pi - prefix[k];
                    let d = sum - ideal;
                    let candidate = cost_prev[k] + d * d;
                    if candidate < best {
                        best = candidate;
                        best_k = k;
                    }
                }
                cost_cur[i] = best;
                choice[row + i] = best_k as u32;
            }
            std::mem::swap(cost_prev, cost_cur);
        }

        // Reconstruct the boundaries.
        let mut starts = vec![0usize; n];
        let mut end = modules;
        for j in (1..n).rev() {
            let boundary = choice[j * width + end] as usize;
            starts[j] = boundary;
            end = boundary;
        }
        Configuration::new(starts, modules).expect("DP partition is always valid")
    }

    /// Runs the full heuristic: DP partition for every feasible group count,
    /// keep the most powerful candidate.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconfigError::Array`] if the ΔT vector does not match
    /// the array.
    pub fn optimise(
        &self,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        self.optimise_with(&mut ArraySolver::new(), array, deltas)
    }

    /// [`Ehtr::optimise`] evaluating its candidates through a caller-owned
    /// solver, so a looping controller reuses the scratch buffers across
    /// invocations instead of reallocating them.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconfigError::Array`] if the ΔT vector does not match
    /// the array.
    pub fn optimise_with(
        &self,
        solver: &mut ArraySolver,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        optimise_in(&self.config, solver, &mut RowPass::default(), array, deltas)
    }
}

/// [`Ehtr::optimise_with`] on recycled pass buffers: INOR's shared pass
/// loads the row's Norton terms, MPP currents and group-count window, the
/// DP partitions every group count, and the candidates are priced against
/// the terms the pass left loaded.
fn optimise_in(
    config: &InorConfig,
    solver: &mut ArraySolver,
    pass: &mut RowPass,
    array: &TegArray,
    deltas: &[TemperatureDelta],
) -> Result<(Configuration, Watts), ReconfigError> {
    let (n_min, n_max) = config.load_row(solver, pass, array, deltas)?;
    // One flat scratch shared by every group count: the DP is ~95 % of
    // an EHTR decide.
    let mut scratch = PartitionScratch::default();
    let candidates: Vec<Configuration> = (n_min..=n_max)
        .map(|n| Ehtr::optimal_partition_with(&pass.currents, n, &mut scratch))
        .collect();
    let mut powers = Vec::with_capacity(candidates.len());
    solver.evaluate_candidates(&candidates, &mut powers)?;
    // The earliest maximum, the tie-break INOR applies too.
    let mut best = 0;
    for (i, power) in powers.iter().enumerate() {
        if *power > powers[best] {
            best = i;
        }
    }
    let power = powers[best];
    let configuration = candidates
        .into_iter()
        .nth(best)
        .expect("window always contains at least one group count");
    Ok((configuration, power))
}

/// Reusable flat DP tables for [`Ehtr::optimal_partition_with`]:
/// `prefix` sums, the previous/current cost rows, and the full boundary
/// (`choice`) table in row-major order.
#[derive(Debug, Clone, Default)]
struct PartitionScratch {
    prefix: Vec<f64>,
    cost_prev: Vec<f64>,
    cost_cur: Vec<f64>,
    choice: Vec<u32>,
}

impl Reconfigurer for Ehtr {
    fn name(&self) -> &'static str {
        "EHTR"
    }

    fn period(&self) -> Seconds {
        self.config.period()
    }

    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        _current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        let started = Instant::now();
        let deltas = window.current_deltas();
        let configuration = match self.memo.as_ref().and_then(|m| m.lookup(&deltas)) {
            Some(cached) => cached.clone(),
            None => {
                let Scratch { solver, pass } = &mut self.scratch;
                let (configuration, _) =
                    optimise_in(&self.config, solver, pass, window.array(), &deltas)?;
                self.memo = Some(DecisionMemo::new(deltas, configuration.clone()));
                configuration
            }
        };
        let elapsed = Seconds::new(started.elapsed().as_secs_f64());
        // Like INOR, the prior-work controller re-applies on every period.
        Ok(ReconfigDecision::new(configuration, elapsed, true, true))
    }

    fn reset(&mut self) {
        self.memo = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inor::Inor;
    use teg_array::ideal_power;
    use teg_device::{TegDatasheet, TegModule};
    use teg_units::Celsius;

    fn array(n: usize) -> TegArray {
        TegArray::uniform(
            TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8()),
            n,
        )
    }

    fn radiator_like_deltas(n: usize) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| TemperatureDelta::new(70.0 * (-(i as f64) * 0.8 / n as f64).exp()))
            .collect()
    }

    #[test]
    fn dp_partition_is_at_least_as_balanced_as_the_greedy() {
        let currents: Vec<Amps> = (0..40)
            .map(|i| Amps::new(2.0 * (-(i as f64) * 0.07).exp()))
            .collect();
        let total: f64 = currents.iter().map(|c| c.value()).sum();
        for n in 2..=8 {
            let ideal = total / n as f64;
            let imbalance = |config: &Configuration| -> f64 {
                config
                    .groups()
                    .map(|g| {
                        let sum: f64 = g.indices().map(|i| currents[i].value()).sum();
                        (sum - ideal) * (sum - ideal)
                    })
                    .sum()
            };
            let dp = Ehtr::optimal_partition(&currents, n);
            let greedy = Inor::balanced_partition(&currents, n);
            assert!(
                imbalance(&dp) <= imbalance(&greedy) + 1e-9,
                "DP imbalance should never exceed the greedy's (n={n})"
            );
        }
    }

    #[test]
    fn dp_partition_covers_all_modules() {
        let currents: Vec<Amps> = (0..25)
            .map(|i| Amps::new(1.0 + (i % 7) as f64 * 0.2))
            .collect();
        for n in 1..=25 {
            let config = Ehtr::optimal_partition(&currents, n);
            assert_eq!(config.group_count(), n);
            assert_eq!(config.groups().map(|g| g.len()).sum::<usize>(), 25);
        }
    }

    #[test]
    fn ehtr_output_power_is_close_to_inor() {
        let a = array(60);
        let deltas = radiator_like_deltas(60);
        let (_, p_ehtr) = Ehtr::default().optimise(&a, &deltas).unwrap();
        let (_, p_inor) = Inor::default().optimise(&a, &deltas).unwrap();
        let ideal = ideal_power(a.modules(), &deltas).unwrap();
        assert!(p_ehtr.value() <= ideal.value() + 1e-9);
        // The two near-optimal schemes land within a few percent of each
        // other, as in the paper's Table I.
        let ratio = p_ehtr.value() / p_inor.value();
        assert!(
            (0.95..=1.05).contains(&ratio),
            "EHTR/INOR power ratio {ratio:.3}"
        );
    }

    #[test]
    fn ehtr_is_slower_than_inor_on_large_arrays() {
        let a = array(200);
        let temps: Vec<f64> = (0..200).map(|i| 96.0 - 0.2 * i as f64).collect();
        let history = vec![temps];
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(200, 10).unwrap();
        let mut inor = Inor::default();
        let mut ehtr = Ehtr::default();
        let d_inor = inor.decide(&inputs, &current).unwrap();
        let d_ehtr = ehtr.decide(&inputs, &current).unwrap();
        assert!(
            d_ehtr.computation().value() > d_inor.computation().value(),
            "EHTR ({}) should take longer than INOR ({})",
            d_ehtr.computation(),
            d_inor.computation()
        );
    }

    #[test]
    fn scratch_stays_out_of_scheme_identity() {
        let a = array(24);
        let temps: Vec<f64> = (0..24).map(|i| 95.0 - 1.4 * i as f64).collect();
        let history = vec![temps];
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(24, 4).unwrap();
        let mut used = Ehtr::default();
        let first = used.decide(&inputs, &current).unwrap();
        assert_eq!(used, Ehtr::default());
        used.reset();
        // A warm scratch decides exactly like a cold one.
        let again = used.decide(&inputs, &current).unwrap();
        assert_eq!(again.configuration(), first.configuration());
        assert_eq!(
            again.configuration(),
            Some(
                &Ehtr::default()
                    .optimise(&a, &inputs.current_deltas())
                    .unwrap()
                    .0
            )
        );
        assert_eq!(used, Ehtr::default());
    }

    #[test]
    fn trait_metadata() {
        let ehtr = Ehtr::default();
        assert_eq!(ehtr.name(), "EHTR");
        assert_eq!(ehtr.period(), Seconds::new(0.5));
        assert_eq!(ehtr.config().min_converter_efficiency(), 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_groups_is_rejected() {
        let currents = vec![Amps::new(1.0); 4];
        let _ = Ehtr::optimal_partition(&currents, 0);
    }
}
