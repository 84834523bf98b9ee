//! Tracing from outside the program: a timing adapter around every scheme's
//! `Reconfigurer::decide`, and a serial replay of a grid that times the
//! thermal pre-solve, every `SimSession::step` and every decision.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use teg_array::Configuration;
use teg_reconfig::{ReconfigDecision, ReconfigError, Reconfigurer, SchemeSpec, TelemetryWindow};
use teg_sim::{
    ComparisonReport, GridSpec, RuntimePolicy, SchemeLineup, SimError, SimSession,
    SimulationReport, SolverPool, SweepCellReport, SweepReport,
};
use teg_units::{KernelMode, Seconds};

/// Decisions of one scheme, as seen by the adapter.
#[derive(Debug, Clone, Default)]
pub struct SchemeTally {
    /// Wall time of every `decide` call, in nanoseconds.
    pub decide_ns: Vec<u64>,
    /// Decisions that ran the optimisation rather than returning early.
    pub evaluated: usize,
    /// Decisions that actuated the switch matrix.
    pub applied: usize,
}

impl SchemeTally {
    fn merge(&mut self, other: &Self) {
        self.decide_ns.extend_from_slice(&other.decide_ns);
        self.evaluated += other.evaluated;
        self.applied += other.applied;
    }
}

/// Where the adapters of one measurement deposit their tallies.
#[derive(Debug, Default)]
pub struct DecideLog {
    by_scheme: Mutex<BTreeMap<&'static str, SchemeTally>>,
    /// Decide nanoseconds since the replay last drained it; lets the serial
    /// replay split one session step into decide time and the rest.
    pending_ns: AtomicU64,
}

impl DecideLog {
    /// The tallies deposited so far, keyed by scheme name.
    pub fn tallies(&self) -> BTreeMap<&'static str, SchemeTally> {
        self.by_scheme
            .lock()
            .expect("a timing adapter panicked while depositing its tally")
            .clone()
    }

    fn take_pending_ns(&self) -> u64 {
        self.pending_ns.swap(0, Ordering::Relaxed)
    }
}

/// A scheme wrapped so that every decision is timed; everything else is
/// forwarded untouched, so results are identical to the bare scheme's.
struct Timed {
    inner: Box<dyn Reconfigurer>,
    log: Arc<DecideLog>,
    local: SchemeTally,
}

impl Reconfigurer for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn period(&self) -> Seconds {
        self.inner.period()
    }

    fn lookback(&self) -> usize {
        self.inner.lookback()
    }

    fn decide(
        &mut self,
        window: &TelemetryWindow<'_>,
        current: &Configuration,
    ) -> Result<ReconfigDecision, ReconfigError> {
        let start = Instant::now();
        let decision = self.inner.decide(window, current);
        let ns = start.elapsed().as_nanos() as u64;
        self.local.decide_ns.push(ns);
        self.log.pending_ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(decision) = &decision {
            self.local.evaluated += usize::from(decision.evaluated());
            self.local.applied += usize::from(decision.applied());
        }
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.inner.set_kernel_mode(mode);
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if self.local.decide_ns.is_empty() {
            return;
        }
        self.log
            .by_scheme
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(self.inner.name())
            .or_default()
            .merge(&self.local);
    }
}

fn timed(inner: Box<dyn Reconfigurer>, log: &Arc<DecideLog>) -> Timed {
    Timed {
        inner,
        log: Arc::clone(log),
        local: SchemeTally::default(),
    }
}

/// The lineup with every scheme built through the timing adapter.  It keeps
/// the original name, so cell keys and reports compare equal to an
/// untraced sweep's.
pub fn traced_lineup(lineup: &SchemeLineup, log: &Arc<DecideLog>) -> SchemeLineup {
    let lineup = lineup.clone();
    let log = Arc::clone(log);
    SchemeLineup::parameterised(lineup.name().to_owned(), move |modules| {
        lineup
            .specs(modules)
            .into_iter()
            .map(|spec| {
                let log = Arc::clone(&log);
                SchemeSpec::new(move || timed(spec.build(), &log))
            })
            .collect()
    })
}

/// What one serial replay of a grid measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of each `Scenario::presolve` call that solved a trace, ms.
    pub solve_ms: Vec<f64>,
    /// Wall time of all presolve calls, solving or not, seconds.
    pub thermal_s: f64,
    /// Wall time of all cells (session set-up, steps, report assembly), s.
    pub cells_s: f64,
    /// Wall time of every `SimSession::step`, µs.
    pub step_us: Vec<f64>,
    /// Step time minus the decide time inside it, µs.
    pub self_us: Vec<f64>,
}

impl Replay {
    /// Appends another replay's samples.
    pub fn merge(&mut self, other: Self) {
        self.solve_ms.extend(other.solve_ms);
        self.thermal_s += other.thermal_s;
        self.cells_s += other.cells_s;
        self.step_us.extend(other.step_us);
        self.self_us.extend(other.self_us);
    }
}

/// Replays every cell of `spec` on this thread, exactly as a sweep worker
/// runs it but with each layer timed, and checks the result against
/// `reference` cell for cell.
pub fn replay(
    spec: &GridSpec,
    reference: &SweepReport,
    policy: RuntimePolicy,
    log: &Arc<DecideLog>,
) -> Result<Replay, String> {
    let sim = |e: SimError| e.to_string();
    let grid = spec.to_grid().map_err(sim)?;
    let mut out = Replay::default();

    for scenario in grid.samples() {
        let start = Instant::now();
        let solved = scenario.presolve(1).map_err(sim)?;
        let elapsed = start.elapsed().as_secs_f64();
        out.thermal_s += elapsed;
        if solved {
            out.solve_ms.push(elapsed * 1e3);
        }
    }

    let mut pool = SolverPool::new();
    let mut cells = Vec::with_capacity(grid.len());
    for cell in grid.cells() {
        let start = Instant::now();
        let scenario = grid.scenario(cell);
        let mut schemes: Vec<Timed> = grid
            .lineup(cell)
            .specs(cell.key().module_count())
            .iter()
            .map(|spec| timed(spec.build(), log))
            .collect();
        let mut sessions = schemes
            .iter_mut()
            .map(|scheme| {
                SimSession::new(scenario, scheme as &mut dyn Reconfigurer).map(|session| {
                    session
                        .with_runtime_policy(policy)
                        .with_solver(pool.acquire())
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(sim)?;
        let steps = scenario.thermal_trace().map_err(sim)?.len();
        let mut records: Vec<Vec<_>> = sessions.iter().map(|_| Vec::with_capacity(steps)).collect();
        log.take_pending_ns();
        for _ in 0..steps {
            for (session, sink) in sessions.iter_mut().zip(records.iter_mut()) {
                let step_start = Instant::now();
                let record = session.step().map_err(sim)?.ok_or("trace ended early")?;
                let step_ns = step_start.elapsed().as_nanos() as f64;
                let decide_ns = log.take_pending_ns() as f64;
                out.step_us.push(step_ns / 1e3);
                out.self_us.push((step_ns - decide_ns).max(0.0) / 1e3);
                sink.push(record);
            }
        }
        let reports = sessions
            .iter_mut()
            .zip(records)
            .map(|(session, records)| {
                pool.release(session.take_solver());
                let summary = session.summary();
                SimulationReport::new(
                    summary.scheme().to_owned(),
                    records,
                    scenario.step(),
                    summary.switch_count(),
                    summary.runtime().clone(),
                )
            })
            .collect();
        drop(sessions);
        drop(schemes);
        cells.push(SweepCellReport::from_parts(
            cell.key().clone(),
            ComparisonReport::from_reports(reports),
        ));
        out.cells_s += start.elapsed().as_secs_f64();
    }

    if cells.as_slice() != reference.cells() {
        return Err(format!(
            "traced replay of `{}` differs from the untraced sweep",
            spec.spec().unwrap_or_default()
        ));
    }
    Ok(out)
}
