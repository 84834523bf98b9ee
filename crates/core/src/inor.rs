//! INOR — Instantaneous Near-Optimal Reconfiguration (Algorithm 1).

use std::time::Instant;

use teg_array::{ArraySolver, Configuration, PartitionPricer, TegArray};
use teg_power::Charger;
use teg_units::{Amps, Seconds, TemperatureDelta, Watts};

use crate::error::ReconfigError;
use crate::memo::DecisionMemo;
use crate::telemetry::TelemetryWindow;
use crate::traits::{ReconfigDecision, Reconfigurer};

/// Tuning parameters of INOR.
///
/// The charger model and the efficiency floor determine the feasible range of
/// group counts `[n_min, n_max]`: the array MPP voltage is roughly `n` times
/// one group's MPP voltage and must stay inside the converter's efficient
/// input window (Section III-B of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct InorConfig {
    charger: Charger,
    min_converter_efficiency: f64,
    period: Seconds,
}

impl InorConfig {
    /// Creates a configuration from a charger model, the minimum acceptable
    /// converter efficiency and the reconfiguration period.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::InvalidParameter`] if the efficiency is not
    /// in `(0, 1]` or the period is not strictly positive.
    pub fn new(
        charger: Charger,
        min_converter_efficiency: f64,
        period: Seconds,
    ) -> Result<Self, ReconfigError> {
        if !(min_converter_efficiency > 0.0 && min_converter_efficiency <= 1.0) {
            return Err(ReconfigError::InvalidParameter {
                name: "minimum converter efficiency",
                value: min_converter_efficiency,
            });
        }
        if !(period.value() > 0.0) {
            return Err(ReconfigError::InvalidParameter {
                name: "reconfiguration period",
                value: period.value(),
            });
        }
        Ok(Self {
            charger,
            min_converter_efficiency,
            period,
        })
    }

    /// The charger model used to derive the group-count window.
    #[must_use]
    pub const fn charger(&self) -> &Charger {
        &self.charger
    }

    /// The efficiency floor the array voltage must keep the charger above.
    #[must_use]
    pub const fn min_converter_efficiency(&self) -> f64 {
        self.min_converter_efficiency
    }

    /// The reconfiguration period.
    #[must_use]
    pub const fn period(&self) -> Seconds {
        self.period
    }
}

impl Default for InorConfig {
    /// The paper's evaluation setting: LTM4607-class charger into a 13.8 V
    /// lead-acid battery, a 90 % converter-efficiency floor and a 0.5 s
    /// reconfiguration period (following the photovoltaic prior work).
    fn default() -> Self {
        Self {
            charger: Charger::ltm4607_lead_acid(),
            min_converter_efficiency: 0.90,
            period: Seconds::new(0.5),
        }
    }
}

/// The `O(N)` instantaneous near-optimal reconfiguration algorithm.
///
/// For every feasible group count `n`, the chain of modules is partitioned
/// greedily so that each group's summed MPP current is as close as possible
/// to the ideal share `Σ I_MPP / n`; the candidate with the highest array MPP
/// power wins.
///
/// One call makes one per-module pass over the ΔT row, which loads the
/// solver's Norton terms, the MPP currents and the group-count window
/// together.  Each candidate is then priced in the same walk that builds
/// it, and only the winner becomes a [`Configuration`].
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, TegArray};
/// use teg_device::{TegDatasheet, TegModule};
/// use teg_reconfig::{Inor, Reconfigurer, TelemetryWindow};
/// use teg_units::Celsius;
///
/// # fn main() -> Result<(), teg_reconfig::ReconfigError> {
/// let module = TegModule::from_datasheet(&TegDatasheet::tgm_199_1_4_0_8());
/// let array = TegArray::uniform(module, 30);
/// let temps: Vec<f64> = (0..30).map(|i| 96.0 - 1.2 * i as f64).collect();
/// let history = vec![temps];
/// let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0))?;
/// let current = Configuration::uniform(30, 5).expect("valid");
/// let decision = Inor::default().decide(&inputs, &current)?;
/// assert!(decision.evaluated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Inor {
    config: InorConfig,
    // Last (ΔT row → partition) pair: a 0.5 s period over 1 s steps asks the
    // same question twice per step.
    memo: Option<DecisionMemo>,
    scratch: Scratch,
}

/// Buffers a reconfigurer recycles across decisions: the solver holding the
/// row's Norton terms and the pass buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) solver: ArraySolver,
    pub(crate) pass: RowPass,
}

/// The memo and the scratch cache derived state only, so they stay out of
/// scheme identity.
impl PartialEq for Inor {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

/// Buffers of the per-module pass INOR, EHTR and ACO share: the MPP
/// currents of the loaded row, plus the group starts of the candidate
/// being built and of the best candidate so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowPass {
    pub(crate) currents: Vec<Amps>,
    starts: Vec<usize>,
    best_starts: Vec<usize>,
}

/// Receives the modules the greedy walk assigns, in module order.
trait GroupSink {
    fn take(&mut self);
    fn close_group(&mut self);
}

/// Builds group starts only.
impl GroupSink for () {
    fn take(&mut self) {}
    fn close_group(&mut self) {}
}

/// Accumulates each group's Norton sums while the walk builds it.
impl GroupSink for PartitionPricer<'_> {
    #[inline]
    fn take(&mut self) {
        self.take_next();
    }

    #[inline]
    fn close_group(&mut self) {
        PartitionPricer::close_group(self);
    }
}

/// The greedy inner loop of Algorithm 1: splits the chain into `n` groups
/// whose summed MPP currents are balanced around `total / n`, writing the
/// group starts into `starts` and handing every module to `sink` in module
/// order, group by group.
fn greedy_walk(
    mpp_currents: &[Amps],
    total: f64,
    n: usize,
    starts: &mut Vec<usize>,
    sink: &mut impl GroupSink,
) {
    let modules = mpp_currents.len();
    assert!(
        n >= 1 && n <= modules,
        "group count {n} out of range for {modules} modules"
    );
    let ideal = total / n as f64;
    starts.clear();
    starts.push(0usize);
    let mut index = 0usize;
    for group in 0..n - 1 {
        let remaining_groups = n - 1 - group;
        // Leave at least one module for each remaining group.
        let max_take = modules - index - remaining_groups;
        let mut sum = 0.0;
        let mut taken = 0usize;
        while taken < max_take {
            let candidate = sum + mpp_currents[index + taken].value();
            // Take at least one module, then keep taking while it brings
            // the group sum closer to the ideal share.
            if taken == 0 || (candidate - ideal).abs() <= (sum - ideal).abs() {
                sum = candidate;
                taken += 1;
                sink.take();
            } else {
                break;
            }
        }
        index += taken;
        sink.close_group();
        starts.push(index);
    }
    // The last group takes the rest of the chain.
    for _ in index..modules {
        sink.take();
    }
    sink.close_group();
}

impl Inor {
    /// Creates INOR with explicit tuning parameters.
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

    /// Derives the feasible group-count window `[n_min, n_max]` from the
    /// charger's efficient input-voltage window and the modules' current MPP
    /// voltages.
    #[must_use]
    pub fn group_bounds(&self, array: &TegArray, deltas: &[TemperatureDelta]) -> (usize, usize) {
        let vmpp_sum = array
            .modules()
            .iter()
            .zip(deltas.iter())
            .map(|(m, &dt)| m.mpp(dt).voltage().value())
            .sum::<f64>();
        self.config.bounds_from_vmpp_sum(vmpp_sum, array.len())
    }

    /// Greedily partitions the chain into `n` groups whose summed MPP
    /// currents are balanced around `Σ I_MPP / n` — the inner loop of
    /// Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the number of modules; callers derive
    /// `n` from [`Inor::group_bounds`], which respects both limits.
    #[must_use]
    pub fn balanced_partition(mpp_currents: &[Amps], n: usize) -> Configuration {
        let total: f64 = mpp_currents.iter().map(|i| i.value()).sum();
        let mut starts = Vec::with_capacity(n);
        greedy_walk(mpp_currents, total, n, &mut starts, &mut ());
        Configuration::new(starts, mpp_currents.len()).expect("greedy partition is always valid")
    }

    /// Runs Algorithm 1 on the given ΔT vector, returning the best
    /// configuration found and its array MPP power.
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

    /// [`Inor::optimise`] evaluating its candidates through a caller-owned
    /// solver, so a looping controller reuses the scratch buffers across
    /// invocations instead of reallocating them.  On return the solver
    /// holds the healthy Norton terms of `deltas`, exactly as
    /// [`ArraySolver::load`] leaves them.
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
        self.config
            .optimise_in(solver, &mut RowPass::default(), array, deltas)
    }
}

// The shared pass and the fused scan need only the tuning, so they live on
// the configuration: a scheme can run them while it lends out its scratch.
impl InorConfig {
    /// [`Inor::group_bounds`] from the summed module MPP voltages.
    pub(crate) fn bounds_from_vmpp_sum(&self, vmpp_sum: f64, n: usize) -> (usize, usize) {
        let mean_vmpp = vmpp_sum / n as f64;
        if mean_vmpp <= 1e-9 {
            // No usable temperature difference anywhere: any wiring is as
            // good as any other.
            return (1, 1);
        }
        let Some((lo, hi)) = self.charger.voltage_window(self.min_converter_efficiency) else {
            return (1, n);
        };
        let n_min = ((lo.value() / mean_vmpp).ceil() as usize).clamp(1, n);
        let n_max = ((hi.value() / mean_vmpp).floor() as usize).clamp(n_min, n);
        (n_min, n_max)
    }

    /// The per-module pass INOR, EHTR and ACO share: loads the row's Norton
    /// terms into `solver` and its MPP currents into `pass.currents`, and
    /// returns the group-count window of [`Inor::group_bounds`].
    pub(crate) fn load_row(
        &self,
        solver: &mut ArraySolver,
        pass: &mut RowPass,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(usize, usize), ReconfigError> {
        let vmpp_sum = solver.load_mpp(array, deltas, &mut pass.currents)?;
        Ok(self.bounds_from_vmpp_sum(vmpp_sum, array.len()))
    }

    /// [`Inor::optimise_with`] on recycled pass buffers: one pass over the
    /// row, then one walk per feasible group count that builds and prices
    /// its candidate together.  Ties go to the earliest maximum, as in a
    /// scan of the finished candidates.
    pub(crate) fn optimise_in(
        &self,
        solver: &mut ArraySolver,
        pass: &mut RowPass,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> Result<(Configuration, Watts), ReconfigError> {
        let (n_min, n_max) = self.load_row(solver, pass, array, deltas)?;
        let RowPass {
            currents,
            starts,
            best_starts,
        } = pass;
        let total: f64 = currents.iter().map(|i| i.value()).sum();
        let mut best_power = None;
        for n in n_min..=n_max {
            let mut pricer = solver.price_partition()?;
            greedy_walk(currents, total, n, starts, &mut pricer);
            let power = pricer.finish();
            if best_power.is_none_or(|best| power > best) {
                best_power = Some(power);
                std::mem::swap(starts, best_starts);
            }
        }
        let power = best_power.expect("window always contains at least one group count");
        let configuration = Configuration::new(best_starts.clone(), array.len())
            .expect("greedy partition is always valid");
        Ok((configuration, power))
    }
}

impl Reconfigurer for Inor {
    fn name(&self) -> &'static str {
        "INOR"
    }

    fn period(&self) -> Seconds {
        self.config.period
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
                    self.config
                        .optimise_in(solver, pass, window.array(), &deltas)?;
                self.memo = Some(DecisionMemo::new(deltas, configuration.clone()));
                configuration
            }
        };
        let elapsed = Seconds::new(started.elapsed().as_secs_f64());
        // The fixed-period controller re-applies its result every period,
        // paying the reconfiguration dead time even when nothing changed.
        Ok(ReconfigDecision::new(configuration, elapsed, true, true))
    }

    fn reset(&mut self) {
        self.memo = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn config_validation() {
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 0.0, Seconds::new(0.5)).is_err());
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 1.1, Seconds::new(0.5)).is_err());
        assert!(InorConfig::new(Charger::ltm4607_lead_acid(), 0.9, Seconds::ZERO).is_err());
        let cfg = InorConfig::new(Charger::ltm4607_lead_acid(), 0.9, Seconds::new(0.5)).unwrap();
        assert_eq!(cfg.period(), Seconds::new(0.5));
        assert_eq!(cfg.min_converter_efficiency(), 0.9);
        assert!(cfg.charger().output_voltage().value() > 13.0);
    }

    #[test]
    fn group_bounds_bracket_the_battery_voltage() {
        let inor = Inor::default();
        let a = array(100);
        let deltas = vec![TemperatureDelta::new(60.0); 100];
        let (n_min, n_max) = inor.group_bounds(&a, &deltas);
        assert!(n_min >= 1 && n_max <= 100 && n_min <= n_max);
        // The implied array voltage window must straddle 13.8 V.
        let vmpp = a.modules()[0]
            .mpp(TemperatureDelta::new(60.0))
            .voltage()
            .value();
        assert!(n_min as f64 * vmpp <= 13.8 * 2.5);
        assert!(n_max as f64 * vmpp >= 13.8 * 0.4);
    }

    #[test]
    fn zero_delta_t_collapses_bounds() {
        let inor = Inor::default();
        let a = array(10);
        let deltas = vec![TemperatureDelta::ZERO; 10];
        assert_eq!(inor.group_bounds(&a, &deltas), (1, 1));
    }

    #[test]
    fn balanced_partition_covers_all_modules() {
        let currents: Vec<Amps> = (0..17).map(|i| Amps::new(1.0 + 0.1 * i as f64)).collect();
        for n in 1..=17 {
            let config = Inor::balanced_partition(&currents, n);
            assert_eq!(config.group_count(), n);
            assert_eq!(config.module_count(), 17);
            let covered: usize = config.groups().map(|g| g.len()).sum();
            assert_eq!(covered, 17);
        }
    }

    #[test]
    fn balanced_partition_balances_group_currents() {
        // A strongly decaying current profile: a naive equal-size split would
        // put far more current in the first group than the last.
        let currents: Vec<Amps> = (0..30)
            .map(|i| Amps::new(2.0 * (-(i as f64) * 0.1).exp()))
            .collect();
        let total: f64 = currents.iter().map(|c| c.value()).sum();
        let n = 5;
        let ideal = total / n as f64;
        let config = Inor::balanced_partition(&currents, n);
        for group in config.groups() {
            let sum: f64 = group.indices().map(|i| currents[i].value()).sum();
            // Every group is within one module's worth of current of the
            // ideal share (the greedy stops when crossing the ideal).
            assert!(
                (sum - ideal).abs() <= 2.0,
                "group {group:?} sum {sum:.2} too far from ideal {ideal:.2}"
            );
        }
    }

    #[test]
    fn inor_beats_the_static_grid_under_a_gradient() {
        let a = array(100);
        let deltas = radiator_like_deltas(100);
        let inor = Inor::default();
        let (best, power) = inor.optimise(&a, &deltas).unwrap();
        let baseline = Configuration::uniform(100, 10).unwrap();
        let baseline_power = a.mpp_power(&baseline, &deltas).unwrap();
        assert!(
            power.value() > baseline_power.value(),
            "INOR {power} should beat the 10x10 baseline {baseline_power}"
        );
        assert!(best.group_count() >= 1);
        // And it cannot exceed the physical upper bound.
        let ideal = ideal_power(a.modules(), &deltas).unwrap();
        assert!(power.value() <= ideal.value() + 1e-9);
    }

    #[test]
    fn inor_reaches_a_large_fraction_of_ideal_power() {
        let a = array(100);
        let deltas = radiator_like_deltas(100);
        let (_, power) = Inor::default().optimise(&a, &deltas).unwrap();
        let ideal = ideal_power(a.modules(), &deltas).unwrap();
        let ratio = power.value() / ideal.value();
        assert!(ratio > 0.9, "INOR reached only {ratio:.3} of ideal");
    }

    #[test]
    fn decide_reports_evaluation_and_runtime() {
        let a = array(40);
        let temps: Vec<f64> = (0..40).map(|i| 95.0 - 0.9 * i as f64).collect();
        let history = vec![temps];
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(40, 4).unwrap();
        let mut inor = Inor::default();
        assert_eq!(inor.name(), "INOR");
        assert_eq!(inor.period(), Seconds::new(0.5));
        let decision = inor.decide(&inputs, &current).unwrap();
        assert!(decision.evaluated());
        assert!(decision.computation().value() >= 0.0);
        let adopted = decision
            .configuration()
            .expect("INOR always proposes a configuration");
        assert_eq!(adopted.module_count(), 40);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_groups_is_rejected() {
        let currents = vec![Amps::new(1.0); 4];
        let _ = Inor::balanced_partition(&currents, 0);
    }

    proptest! {
        /// The greedy partition always produces a valid configuration whose
        /// MPP power never exceeds the ideal bound, for arbitrary gradients.
        #[test]
        fn prop_partition_valid_and_bounded(
            n in 2usize..60,
            groups in 1usize..12,
            hot in 40.0_f64..110.0,
            decay in 0.0_f64..2.0,
        ) {
            prop_assume!(groups <= n);
            let a = array(n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(hot * (-(i as f64) * decay / n as f64).exp()))
                .collect();
            let currents = a.mpp_currents(&deltas).unwrap();
            let config = Inor::balanced_partition(&currents, groups);
            prop_assert_eq!(config.group_count(), groups);
            let power = a.mpp_power(&config, &deltas).unwrap();
            let ideal = ideal_power(a.modules(), &deltas).unwrap();
            prop_assert!(power.value() <= ideal.value() + 1e-6);
        }

        /// INOR's chosen configuration is never worse than every uniform
        /// split inside its own group window (it can only add candidates).
        #[test]
        fn prop_inor_at_least_as_good_as_uniform_splits(
            n in 4usize..50,
            hot in 40.0_f64..100.0,
        ) {
            let a = array(n);
            let deltas: Vec<_> = (0..n)
                .map(|i| TemperatureDelta::new(hot * (1.0 - 0.6 * i as f64 / n as f64)))
                .collect();
            let inor = Inor::default();
            let (_, power) = inor.optimise(&a, &deltas).unwrap();
            let (n_min, n_max) = inor.group_bounds(&a, &deltas);
            for groups in n_min..=n_max {
                let uniform = Configuration::uniform(n, groups).unwrap();
                let uniform_power = a.mpp_power(&uniform, &deltas).unwrap();
                // Allow a tiny slack: the greedy balances currents, which is
                // not always identical to the best uniform split but must be
                // competitive.
                prop_assert!(power.value() >= 0.98 * uniform_power.value());
            }
        }
    }

    /// The greedy exactly as it stood before the walk was shared with the
    /// fused scan, kept as the reference `balanced_partition` must match.
    fn legacy_balanced_partition(mpp_currents: &[Amps], n: usize) -> Configuration {
        let modules = mpp_currents.len();
        let total: f64 = mpp_currents.iter().map(|i| i.value()).sum();
        let ideal = total / n as f64;
        let mut starts = vec![0usize];
        let mut index = 0usize;
        for group in 0..n - 1 {
            let max_take = modules - index - (n - 1 - group);
            let mut sum = 0.0;
            let mut taken = 0usize;
            while taken < max_take {
                let candidate = sum + mpp_currents[index + taken].value();
                if taken == 0 || (candidate - ideal).abs() <= (sum - ideal).abs() {
                    sum = candidate;
                    taken += 1;
                } else {
                    break;
                }
            }
            index += taken.max(1);
            starts.push(index);
        }
        Configuration::new(starts, modules).unwrap()
    }

    /// The candidate scan the fused walk replaces: every balanced partition
    /// in the window built first, then priced through `evaluate_candidates`
    /// on freshly loaded terms, keeping the earliest maximum.
    fn reference_scan(
        inor: &Inor,
        array: &TegArray,
        deltas: &[TemperatureDelta],
    ) -> (Configuration, Watts) {
        let currents = array.mpp_currents(deltas).unwrap();
        let (n_min, n_max) = inor.group_bounds(array, deltas);
        let candidates: Vec<_> = (n_min..=n_max)
            .map(|n| Inor::balanced_partition(&currents, n))
            .collect();
        let mut solver = ArraySolver::new();
        solver.load(array, deltas, None).unwrap();
        let mut powers = Vec::new();
        solver
            .evaluate_candidates(&candidates, &mut powers)
            .unwrap();
        let mut best = 0;
        for (i, power) in powers.iter().enumerate() {
            if *power > powers[best] {
                best = i;
            }
        }
        (candidates[best].clone(), powers[best])
    }

    /// A non-uniform array: plain and drifting-material modules alternate,
    /// each scaled by its own factors.
    fn mixed_array(n: usize, spread: f64) -> TegArray {
        let datasheet = TegDatasheet::tgm_199_1_4_0_8();
        let plain = TegModule::from_datasheet(&datasheet);
        let drifting = TegModule::with_material(
            &datasheet,
            teg_device::ThermoelectricMaterial::bismuth_telluride_with_drift(),
        );
        let modules = (0..n)
            .map(|i| {
                let base = if i % 3 == 1 { &drifting } else { &plain };
                let k = i as f64 / n as f64 - 0.5;
                base.scaled(1.0 + spread * k, 1.0 + spread * k * k).unwrap()
            })
            .collect();
        TegArray::new(modules).unwrap()
    }

    /// ΔT rows by shape: 0 a decaying gradient, 1 all zero (window
    /// `(1, 1)`), 2 all equal (tied candidates), 3 a tiny difference (the
    /// window collapses to one group per module), 4 a gradient crossing
    /// into negative differences.
    fn shaped_deltas(shape: usize, n: usize, hot: f64, decay: f64) -> Vec<TemperatureDelta> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                TemperatureDelta::new(match shape {
                    0 => hot * (-x * decay).exp(),
                    1 => 0.0,
                    2 => hot,
                    3 => 1e-3 * (1.0 + x),
                    _ => hot * (0.5 - x),
                })
            })
            .collect()
    }

    #[test]
    fn window_edge_rows_hit_the_window_edges() {
        let inor = Inor::default();
        let a = array(12);
        assert_eq!(
            inor.group_bounds(&a, &shaped_deltas(1, 12, 60.0, 1.0)),
            (1, 1)
        );
        assert_eq!(
            inor.group_bounds(&a, &shaped_deltas(3, 12, 60.0, 1.0)),
            (12, 12)
        );
    }

    proptest! {
        /// The walk behind `balanced_partition` is the pre-fusion greedy.
        #[test]
        fn prop_balanced_partition_matches_the_legacy_greedy(
            currents in collection::vec(0.0_f64..3.0, 1..60),
            groups in 1usize..60,
            equal in 0usize..4,
        ) {
            let n = groups.min(currents.len());
            // One case in four has all-equal currents.
            let currents: Vec<Amps> = currents
                .iter()
                .map(|&c| Amps::new(if equal == 0 { 1.25 } else { c }))
                .collect();
            prop_assert_eq!(
                Inor::balanced_partition(&currents, n),
                legacy_balanced_partition(&currents, n)
            );
        }

        /// The fused pass-and-walk scan picks the configuration and power
        /// of the reference scan bit for bit, on non-uniform arrays and on
        /// rows at the window's edges, and a recycled pass gives the same
        /// answer as a fresh one.
        #[test]
        fn prop_fused_scan_matches_the_reference_scan(
            n in 1usize..80,
            shape in 0usize..5,
            hot in 5.0_f64..110.0,
            decay in 0.0_f64..2.5,
            spread in 0.0_f64..0.4,
            other in 1usize..80,
        ) {
            // Identical modules at one ΔT make tied candidates likely.
            let a = if shape == 2 { array(n) } else { mixed_array(n, spread) };
            let deltas = shaped_deltas(shape, n, hot, decay);
            let inor = Inor::default();
            let (want_config, want_power) = reference_scan(&inor, &a, &deltas);

            let (config, power) = inor.optimise(&a, &deltas).unwrap();
            prop_assert_eq!(&config, &want_config);
            prop_assert_eq!(power.value().to_bits(), want_power.value().to_bits());

            // Warm the scratch on another array size first.
            let mut scratch = Scratch::default();
            let b = mixed_array(other, spread);
            inor.config
                .optimise_in(&mut scratch.solver, &mut scratch.pass, &b, &shaped_deltas(0, other, hot, decay))
                .unwrap();
            let (config, power) = inor
                .config
                .optimise_in(&mut scratch.solver, &mut scratch.pass, &a, &deltas)
                .unwrap();
            prop_assert_eq!(&config, &want_config);
            prop_assert_eq!(power.value().to_bits(), want_power.value().to_bits());
        }
    }

    #[test]
    fn ties_go_to_the_earliest_maximum() {
        // Twelve identical modules at one ΔT: three balanced partitions in
        // the window price to the same bits.
        let a = array(12);
        let deltas = vec![TemperatureDelta::new(80.0); 12];
        let inor = Inor::default();
        let currents = a.mpp_currents(&deltas).unwrap();
        let (n_min, n_max) = inor.group_bounds(&a, &deltas);
        let mut solver = ArraySolver::new();
        solver.load(&a, &deltas, None).unwrap();
        let mut powers = Vec::new();
        let candidates: Vec<_> = (n_min..=n_max)
            .map(|n| Inor::balanced_partition(&currents, n))
            .collect();
        solver
            .evaluate_candidates(&candidates, &mut powers)
            .unwrap();
        let max = powers.iter().copied().fold(Watts::ZERO, Watts::max);
        let tied: Vec<_> = (0..powers.len()).filter(|&i| powers[i] == max).collect();
        assert!(tied.len() > 1, "expected tied maxima, got {powers:?}");
        let (best, power) = inor.optimise(&a, &deltas).unwrap();
        assert_eq!(best, candidates[tied[0]]);
        assert_eq!(power, max);
    }

    /// `Dnor` prices its incumbent against what `optimise_with` leaves in
    /// the solver instead of reloading the row; this pins that the solver
    /// then holds exactly a fresh `load` of the row, whatever it held before.
    #[test]
    fn optimise_with_leaves_the_row_loaded() {
        let inor = Inor::default();
        for (n, shape) in [(1, 0), (7, 1), (40, 0), (40, 2), (25, 3), (60, 4)] {
            let a = mixed_array(n, 0.3);
            let deltas = shaped_deltas(shape, n, 80.0, 1.2);
            // Stale, faulted terms of another row.
            let mut solver = ArraySolver::new();
            let stale = shaped_deltas(0, n, 30.0, 0.1);
            let mut faults = teg_array::FaultState::healthy(n);
            faults
                .set_module_fault(0, teg_array::ModuleFault::ShortCircuit)
                .unwrap();
            solver.load(&a, &stale, Some(&faults)).unwrap();

            let (best, _) = inor.optimise_with(&mut solver, &a, &deltas).unwrap();
            let mut fresh = ArraySolver::new();
            fresh.load(&a, &deltas, None).unwrap();
            for config in [
                best,
                Configuration::uniform(n, 1).unwrap(),
                Configuration::uniform(n, n).unwrap(),
            ] {
                assert_eq!(
                    solver.mpp_power(&config).unwrap().value().to_bits(),
                    fresh.mpp_power(&config).unwrap().value().to_bits()
                );
            }
        }
    }

    #[test]
    fn scratch_stays_out_of_scheme_identity() {
        let a = array(30);
        let temps: Vec<f64> = (0..30).map(|i| 95.0 - 1.1 * i as f64).collect();
        let history = vec![temps];
        let inputs = TelemetryWindow::new(&a, &history, Celsius::new(25.0)).unwrap();
        let current = Configuration::uniform(30, 3).unwrap();
        let mut used = Inor::default();
        let first = used.decide(&inputs, &current).unwrap();
        assert_eq!(used, Inor::default());
        used.reset();
        // A warm scratch decides exactly like a cold one.
        let again = used.decide(&inputs, &current).unwrap();
        assert_eq!(again.configuration(), first.configuration());
        assert_eq!(used, Inor::default());
    }
}
