//! The repository's benchmark: seeded sweep workloads run end to end, with
//! every output checked, plus a traced run that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-lineup --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` measures the per-layer metrics.  Both print one line per
//! metric, a `provenance:` line, and last a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  Any output that differs from its
//! reference, or breaks net ≤ gross ≤ ideal, ends the run with exit code 1
//! and no metrics.  `BENCHMARK.json` at the repository root lists the
//! workloads and metrics.

mod json;
mod phases;
mod probe;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teg_serve::checkpoint::{delete_checkpoint, CheckpointWriter};
use teg_serve::codec::{decode_cell, encode_cell};
use teg_serve::protocol::policy_token;
use teg_sim::{SweepCellReport, SweepReport, TraceCache};

use crate::json::Json;
use crate::phases::{
    in_process, served, server_stats, setup, Ctx, Grid, InProcess, Prepared, Requests,
};
use crate::probe::{DecideLog, Replay};
use crate::stats::{
    median, quartiles, quiet_at, quiet_windows, tail, window_rates, window_steal, Tally,
};
use crate::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <paper-lineup|fleet-scale|served-stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Fewest set-ups per untraced run; `setup_s` is the median of the quiet
/// ones (see `untraced`).
const SETUP_RUNS: usize = 7;

/// Set-ups go on past `SETUP_RUNS` until they have taken this long, so a
/// workload with a quick set-up takes its median over more of them.
const SETUP_MIN_S: f64 = 3.0;

/// Largest share of the machine's CPU time the hypervisor may hand to other
/// tenants within a 1 s window for the window to count (see `untraced`).
/// Quiet windows on the machine the benchmark was tuned on read 0–1 %.
const MAX_STEAL: f64 = 0.02;

/// The traced run alternates its four request phases this many times.
const TRACE_ROUNDS: usize = 2;

/// Scheme display names and the keys the per-layer metrics use.
const SCHEMES: [(&str, &str); 4] = [
    ("dnor", "DNOR"),
    ("inor", "INOR"),
    ("ehtr", "EHTR"),
    ("baseline", "Baseline"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: take("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds takes a positive integer")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let work_root = Path::new(".perfbench-work");
    let ctx = Ctx {
        nproc,
        workers: nproc,
        clients: nproc,
        work: work_root.join(std::process::id().to_string()),
    };
    let result = fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("creating {}: {e}", ctx.work.display()))
        .and_then(|()| {
            if args.trace {
                traced(&args, &ctx)
            } else {
                untraced(&args, &ctx)
            }
        });
    let _ = fs::remove_dir_all(&ctx.work);
    let _ = fs::remove_dir(work_root); // only succeeds when no other run is using it
    match result {
        Ok(run) => {
            run.print(&args, &ctx);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}

/// One printed metric.
struct Metric {
    name: String,
    value: Json,
    unit: &'static str,
    /// How the value was formed, for the human-readable line.
    note: String,
}

fn metric(name: impl Into<String>, value: impl Into<Json>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: value.into(),
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// A finished run: metrics, request counts and provenance.
struct Run {
    metrics: Vec<Metric>,
    tally: Tally,
    grids: Vec<String>,
    extra: Vec<(String, Json)>,
}

impl Run {
    fn print(&self, args: &Args, ctx: &Ctx) {
        println!(
            "perfbench {} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for m in &self.metrics {
            let value = m.value.to_string();
            println!("  {:<34} {value:>16} {:<8} {}", m.name, m.unit, m.note);
        }
        let samples: Vec<(String, Json)> = self
            .metrics
            .iter()
            .filter(|m| !m.note.is_empty())
            .map(|m| (m.name.clone(), Json::str(&m.note)))
            .collect();
        let mut provenance = vec![
            ("workload".to_owned(), Json::str(args.workload.name())),
            ("seed".to_owned(), Json::Int(args.seed)),
            ("seconds".to_owned(), Json::Int(args.seconds)),
            ("trace".to_owned(), Json::Bool(args.trace)),
            (
                "grid_lines".to_owned(),
                Json::Arr(self.grids.iter().map(Json::str).collect()),
            ),
            ("nproc".to_owned(), ctx.nproc.into()),
            ("workers".to_owned(), ctx.workers.into()),
            ("clients".to_owned(), ctx.clients.into()),
            ("connections".to_owned(), ctx.clients.into()),
            ("commit".to_owned(), commit().map_or(Json::Null, Json::Str)),
            ("source_digest".to_owned(), Json::str(source_digest())),
            ("rustc".to_owned(), Json::str(env!("PERFBENCH_RUSTC"))),
            ("profile".to_owned(), Json::str(env!("PERFBENCH_PROFILE"))),
            ("samples".to_owned(), Json::Obj(samples)),
        ];
        provenance.extend(self.extra.iter().cloned());
        println!("provenance: {}", Json::Obj(provenance));
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", m.value.clone()), ("unit", Json::str(m.unit))]),
            )
        });
        let result = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{result}");
    }
}

/// The end-to-end run: several timed set-ups, then the workload's own
/// requests for `--seconds`, untraced.
fn untraced(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut setup_steal = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let setups_start = Instant::now();
    while setup_s.len() < SETUP_RUNS || setups_start.elapsed().as_secs_f64() < SETUP_MIN_S {
        let journal = ctx.work.join(format!("journal-{}", setup_s.len()));
        let ticks = cpu_steal_ticks();
        let start = Instant::now();
        let next = setup(
            args.workload,
            args.seed,
            ctx,
            args.workload.served(),
            &journal,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_steal.push(steal_share(ticks, cpu_steal_ticks()));
        if let Some(previous) = prepared.replace(next) {
            let same = previous
                .grids
                .iter()
                .zip(&prepared.as_ref().expect("just set").grids)
                .all(|(a, b)| a.reference == b.reference);
            if !same {
                return Err("two set-ups computed different reference reports".into());
            }
            if let Some(server) = previous.server {
                server.shutdown();
            }
        }
    }
    let Prepared { grids, server } = prepared.expect("SETUP_RUNS > 0");
    // Set-ups during which other tenants took more than MAX_STEAL of the
    // CPU are left out the same way as contended windows below.
    let quiet_setups: Vec<f64> = setup_s
        .iter()
        .zip(quiet_windows(&setup_steal, MAX_STEAL))
        .filter(|&(_, q)| q)
        .map(|(&s, _)| s)
        .collect();
    let duration = Duration::from_secs(args.seconds);
    let (requests, steal_samples) = sample_steal_while(|| match &server {
        Some(server) => served(server, &grids, ctx, duration, "timed", false),
        None => in_process(&grids, ctx, InProcess::Fresh, duration),
    });
    let requests = requests?;
    if let Some(server) = server {
        server.shutdown();
    }
    if requests.cells == 0 {
        return Err("no request completed".into());
    }

    // Windows in which other tenants took more than MAX_STEAL of the CPU
    // are left out, keeping at least the quieter half of the run; a request
    // counts when the window it ended in counts.
    let rates = window_rates(&requests.spans, requests.wall_s, 1.0);
    let steal = window_steal(&steal_samples, rates.len(), 1.0);
    let quiet = quiet_windows(&steal, MAX_STEAL);
    let quiet_rates: Vec<f64> = rates
        .iter()
        .zip(&quiet)
        .filter(|(_, &q)| q)
        .map(|(&r, _)| r)
        .collect();
    let cells_per_s = if quiet_rates.len() >= 3 {
        median(&quiet_rates).expect("three windows")
    } else {
        requests.cells_per_s()
    };
    let kept: Vec<usize> = (0..requests.spans.len())
        .filter(|&i| quiet_at(requests.spans[i].1, &quiet, 1.0))
        .collect();
    let request_ms: Vec<f64> = kept.iter().map(|&i| requests.request_ms[i]).collect();
    let first_cell_ms: Vec<f64> = kept.iter().map(|&i| requests.first_cell_ms[i]).collect();

    let mut metrics = vec![
        metric("setup_s", median(&quiet_setups).expect("set-ups ran"), "s").note(format!(
            "median of {} quiet set-ups of {}",
            quiet_setups.len(),
            setup_s.len()
        )),
        metric("cells_per_s", cells_per_s, "cells/s").note(format!(
            "median of {} quiet 1 s windows of {}; overall {} cells in {:.3} s",
            quiet_rates.len(),
            rates.len(),
            requests.cells,
            requests.wall_s
        )),
    ];
    metrics.extend(latency("request", &request_ms));
    metrics.extend(latency("first_cell", &first_cell_ms));
    metrics.push(
        metric("completed_ratio", requests.tally.completed_ratio(), "ratio").note(format!(
            "{} of {} requests",
            requests.tally.attempted - requests.tally.failed,
            requests.tally.attempted
        )),
    );
    metrics.push(metric(
        "bytes_per_cell",
        requests.frame_bytes as f64 / requests.cells as f64,
        "B",
    ));
    metrics.push(metric("peak_rss_mib", peak_rss_mib()?, "MiB"));
    metrics.push(metric(
        "dnor_ideal_fraction",
        dnor_ideal_fraction(&grids)?,
        "ratio",
    ));
    Ok(Run {
        metrics,
        tally: requests.tally,
        grids: grids.iter().map(|g| g.line.clone()).collect(),
        extra: vec![
            (
                "tracing_overhead".to_owned(),
                Json::str("measured by the --trace 1 run"),
            ),
            (
                "cells_per_s_per_window".to_owned(),
                Json::Arr(rates.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "cpu_steal_per_setup".to_owned(),
                Json::Arr(setup_steal.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "cpu_steal_per_window".to_owned(),
                Json::Arr(steal.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "quiet_windows".to_owned(),
                Json::str(format!(
                    "{} of {} windows with CPU steal <= {MAX_STEAL}; {} of {} windows and \
                     {} of {} requests (by the window they ended in) counted",
                    steal.iter().filter(|&&x| x <= MAX_STEAL).count(),
                    steal.len(),
                    quiet_rates.len(),
                    rates.len(),
                    kept.len(),
                    requests.spans.len()
                )),
            ),
        ],
    })
}

/// `<prefix>_p50_ms` and `<prefix>_tail_ms` of `samples`.
fn latency(prefix: &str, samples: &[f64]) -> [Metric; 2] {
    let p50 = metric(
        format!("{prefix}_p50_ms"),
        median(samples).unwrap_or(0.0),
        "ms",
    )
    .note(match quartiles(samples) {
        Some([q1, _, q3]) => format!(
            "median of {} samples, quartiles {q1:.3}..{q3:.3}",
            samples.len()
        ),
        None => format!("median of {} samples", samples.len()),
    });
    let tail = match tail(samples) {
        Some(t) => metric(format!("{prefix}_tail_ms"), t.value, "ms").note(format!(
            "p{} of {} samples, {} beyond",
            t.percentile, t.samples, t.beyond
        )),
        None => metric(
            format!("{prefix}_tail_ms"),
            samples.iter().copied().fold(0.0, f64::max),
            "ms",
        )
        .note(format!(
            "max of {} samples (too few for a tail)",
            samples.len()
        )),
    };
    [p50, tail]
}

/// DNOR's mean fraction of the ideal energy over every cell of the pool.
fn dnor_ideal_fraction(grids: &[Grid]) -> Result<f64, String> {
    let cells: Vec<SweepCellReport> = grids
        .iter()
        .flat_map(|g| g.reference.cells().iter().cloned())
        .collect();
    SweepReport::from_cells(cells, 0)
        .summary("DNOR")
        .map(|s| s.mean_power_ratio())
        .ok_or_else(|| "no DNOR summary".to_owned())
}

/// The traced run: the workload's grids through four request phases —
/// in-process untraced, in-process with the decide adapter, served, and
/// in-process on a warm shared cache — alternated for `--seconds`, then a
/// serial replay that times every layer, and codec and journal probes.
fn traced(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    let Prepared { grids, server } = setup(
        args.workload,
        args.seed,
        ctx,
        true,
        &ctx.work.join("journal"),
    )?;
    let server = server.expect("set-up started the server");
    let adapter_log = Arc::new(DecideLog::default());
    let shared = TraceCache::new();
    in_process(&grids, ctx, InProcess::Shared(&shared), Duration::ZERO)?;

    let slice = Duration::from_secs_f64(args.seconds as f64 / (4 * TRACE_ROUNDS) as f64);
    let [mut plain, mut adapted, mut remote, mut warm] =
        std::array::from_fn(|_| Requests::new(grids.len()));
    for round in 0..TRACE_ROUNDS {
        plain.merge(in_process(&grids, ctx, InProcess::Fresh, slice)?);
        adapted.merge(in_process(
            &grids,
            ctx,
            InProcess::Traced(&adapter_log),
            slice,
        )?);
        remote.merge(served(
            &server,
            &grids,
            ctx,
            slice,
            &format!("trace{round}"),
            true,
        )?);
        warm.merge(in_process(&grids, ctx, InProcess::Shared(&shared), slice)?);
    }
    let service = server_stats(&server)?;
    server.shutdown();

    let replay_log = Arc::new(DecideLog::default());
    let mut replay = Replay::default();
    for grid in &grids {
        replay.merge(probe::replay(
            &grid.spec,
            &grid.reference,
            Ctx::policy(),
            &replay_log,
        )?);
    }
    let (encode_us, decode_us) = codec_probe(&remote.sample_cells)?;
    let append_us = journal_probe(
        &ctx.work.join("probe-journal"),
        &grids[0].line,
        &remote.sample_cells,
    )?;

    let mut tally = Tally::default();
    for phase in [&plain, &adapted, &remote, &warm] {
        tally.merge(phase.tally);
    }
    let p50 = |samples: &[f64]| median(samples).unwrap_or(0.0);
    let n = |samples: &[f64]| format!("median of {} samples", samples.len());
    let traced_s = replay.thermal_s + replay.cells_s;
    let mut m = vec![
        metric("thermal.solve_ms_p50", p50(&replay.solve_ms), "ms").note(n(&replay.solve_ms)),
        metric("thermal.solves", replay.solve_ms.len(), "count"),
        metric("thermal.share", replay.thermal_s / traced_s, "ratio"),
    ];

    let (hits, misses) = if args.workload.served() {
        (service.cache_hits, service.cache_misses)
    } else {
        plain
            .cache
            .iter()
            .fold((0, 0), |(h, m), &(a, b)| (h + a, m + b))
    };
    m.push(metric("trace_cache.hits", hits, "count"));
    m.push(metric("trace_cache.misses", misses, "count"));
    m.push(metric(
        "trace_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));

    let (planned, solved) = if args.workload.served() {
        (service.presolve_planned, service.presolve_solved)
    } else {
        plain
            .presolve
            .iter()
            .fold((0, 0), |(p, s), &(a, b, _)| (p + a, s + b))
    };
    let presolve_ms: Vec<f64> = plain.presolve.iter().map(|&(_, _, ms)| ms).collect();
    m.push(metric("sweep.presolve_planned", planned, "count"));
    m.push(metric("sweep.presolve_solved", solved, "count"));
    m.push(metric("sweep.presolve_ms", p50(&presolve_ms), "ms").note(n(&presolve_ms)));
    let untraced_pool_s: f64 = plain.per_grid_ms.iter().map(|ms| p50(ms) / 1e3).sum();
    m.push(
        metric(
            "sweep.parallel_efficiency",
            replay.cells_s / (ctx.workers as f64 * untraced_pool_s),
            "ratio",
        )
        .note(format!(
            "{:.4} s serial cell time / ({} workers × {:.4} s untraced pool wall)",
            replay.cells_s, ctx.workers, untraced_pool_s
        )),
    );

    m.push(metric("session.step_us_p50", p50(&replay.step_us), "us").note(n(&replay.step_us)));
    m.push(metric("session.self_us_p50", p50(&replay.self_us), "us").note(n(&replay.self_us)));

    let tallies = replay_log.tallies();
    for (key, name) in SCHEMES {
        let tally = tallies.get(name).cloned().unwrap_or_default();
        let us: Vec<f64> = tally.decide_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let total_s = tally.decide_ns.iter().sum::<u64>() as f64 / 1e9;
        m.push(metric(format!("core.decide_us_p50.{key}"), p50(&us), "us").note(n(&us)));
        m.push(metric(
            format!("core.decide_share.{key}"),
            total_s / traced_s,
            "ratio",
        ));
        m.push(metric(format!("core.decisions.{key}"), us.len(), "count"));
        m.push(metric(
            format!("core.applied.{key}"),
            tally.applied,
            "count",
        ));
        if key == "dnor" {
            m.push(metric(
                "core.evaluated_ratio.dnor",
                tally.evaluated as f64 / us.len().max(1) as f64,
                "ratio",
            ));
        }
    }

    m.push(metric("serve.accept_ms_p50", p50(&remote.accept_ms), "ms").note(n(&remote.accept_ms)));
    m.push(
        metric("serve.cell_gap_ms_p50", p50(&remote.cell_gap_ms), "ms")
            .note(n(&remote.cell_gap_ms)),
    );
    m.push(metric("codec.encode_us_p50", p50(&encode_us), "us").note(n(&encode_us)));
    m.push(metric("codec.decode_us_p50", p50(&decode_us), "us").note(n(&decode_us)));
    m.push(metric("checkpoint.append_us_p50", p50(&append_us), "us").note(n(&append_us)));
    m.push(
        metric(
            "serve.overhead_share",
            1.0 - remote.cells_per_s() / warm.cells_per_s(),
            "ratio",
        )
        .note(format!(
            "1 - {:.1} served / {:.1} in-process cells/s",
            remote.cells_per_s(),
            warm.cells_per_s()
        )),
    );
    m.push(metric(
        "serve.overhead_base_cells_per_s",
        warm.cells_per_s(),
        "cells/s",
    ));
    m.push(metric(
        "serve.workers_respawned",
        service.workers_respawned,
        "count",
    ));
    m.push(metric(
        "serve.connections_rejected",
        service.connections_rejected,
        "count",
    ));

    let overhead = Json::obj([
        ("untraced_cells_per_s", Json::Num(plain.cells_per_s())),
        ("traced_cells_per_s", Json::Num(adapted.cells_per_s())),
        (
            "share",
            Json::Num(1.0 - adapted.cells_per_s() / plain.cells_per_s()),
        ),
    ]);
    Ok(Run {
        metrics: m,
        tally,
        grids: grids.iter().map(|g| g.line.clone()).collect(),
        extra: vec![("tracing_overhead".to_owned(), overhead)],
    })
}

/// Times `codec::encode_cell` and `codec::decode_cell` on delivered cells
/// and checks that they round-trip.
fn codec_probe(cells: &[SweepCellReport]) -> Result<(Vec<f64>, Vec<f64>), String> {
    const REPEATS: usize = 5;
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for cell in cells.iter().cycle().take(cells.len() * REPEATS) {
        let start = Instant::now();
        let payload = encode_cell(cell);
        encode_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let decoded = decode_cell(&payload).map_err(|e| format!("decoding a cell: {e}"))?;
        decode_us.push(start.elapsed().as_secs_f64() * 1e6);
        if decoded != *cell {
            return Err(format!(
                "cell {} does not survive encode/decode",
                cell.key()
            ));
        }
    }
    Ok((encode_us, decode_us))
}

/// Times `CheckpointWriter::append` of the delivered cells' payloads into a
/// fresh journal, then deletes it.
fn journal_probe(dir: &Path, line: &str, cells: &[SweepCellReport]) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("probe journal: {e}");
    let mut writer =
        CheckpointWriter::open(dir, "probe", line, &policy_token(Ctx::policy())).map_err(io)?;
    let mut append_us = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        let payload = encode_cell(cell);
        let start = Instant::now();
        writer.append(index, &payload).map_err(io)?;
        append_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(writer);
    delete_checkpoint(dir, "probe").map_err(io)?;
    Ok(append_us)
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Cumulative (steal, total) CPU ticks of the machine, from `/proc/stat`.
fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the CPU time between two `cpu_steal_ticks` readings that was
/// stolen; 0 when either reading failed.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) if b.1 > a.1 => b.0.saturating_sub(a.0) as f64 / (b.1 - a.1) as f64,
        _ => 0.0,
    }
}

/// Runs `work` while a thread samples the machine's cumulative CPU steal
/// every 100 ms; the samples are in seconds since `work` began.
fn sample_steal_while<T: Send>(work: impl FnOnce() -> T) -> (T, Vec<(f64, u64, u64)>) {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let finished = done.load(Ordering::Relaxed);
                if let Some((steal, total)) = cpu_steal_ticks() {
                    samples.push((start.elapsed().as_secs_f64(), steal, total));
                }
                if finished {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        (
            out,
            sampler.join().expect("the steal sampler does not panic"),
        )
    })
}

/// The checked-out commit, when the benchmark runs inside a git work tree
/// root.
fn commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a digest over the paths and bytes of the program's sources and the
/// benchmark's own, identifying the code measured when no commit is known.
fn source_digest() -> String {
    const ROOTS: [&str; 6] = [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ];
    let mut files = Vec::new();
    for root in ROOTS {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = fs::read(&file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
