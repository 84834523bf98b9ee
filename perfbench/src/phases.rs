//! The measured phases: set-up, in-process sweeps and served sweeps, each
//! checking every report it receives against the set-up's references.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use teg_serve::codec::encode_cell;
use teg_serve::{
    FrameKind, ServeClient, ServeError, ServerConfig, StatsReply, SubmitRequest, SweepServer,
};
use teg_sim::{
    GridSpec, RuntimePolicy, SchemeLineup, SweepCellReport, SweepReport, SweepRunner, TraceCache,
};
use teg_units::Seconds;

use crate::probe::{traced_lineup, DecideLog};
use crate::stats::{Outcome, Tally};
use crate::workload::{Workload, FIXED_COMPUTATION_S};

/// A CELL frame's bytes beyond its payload: the u32 length prefix and the
/// kind byte.  Only the in-process workloads use it; served grids count
/// their frames on the wire (see `wire_cell_bytes`).
pub const FRAME_HEADER_BYTES: usize = 5;

/// Machine shape and settings shared by every phase.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Available parallelism.
    pub nproc: usize,
    /// Sweep workers, in-process and in the service.
    pub workers: usize,
    /// Concurrent closed-loop clients of the service.
    pub clients: usize,
    /// Directory for checkpoint journals and other scratch files.
    pub work: PathBuf,
}

impl Ctx {
    /// The runtime policy every request runs under; it matches the
    /// lineups' fixed DNOR charge, so reports are deterministic.
    pub fn policy() -> RuntimePolicy {
        RuntimePolicy::Fixed(Seconds::new(FIXED_COMPUTATION_S))
    }

    fn runner(&self) -> SweepRunner {
        SweepRunner::new()
            .workers(self.workers)
            .runtime_policy(Self::policy())
    }
}

/// One request's grid: its line, the parsed spec, the reference report and
/// the CELL frame bytes its cells take on the wire (counted on the wire when
/// set-up started a server, else computed from `encode_cell`).
pub struct Grid {
    pub line: String,
    pub spec: GridSpec,
    pub lineups: Vec<SchemeLineup>,
    pub reference: SweepReport,
    pub frame_bytes: usize,
}

/// What set-up leaves for the timed phases.
pub struct Prepared {
    pub grids: Vec<Grid>,
    pub server: Option<SweepServer>,
}

/// Generates the grid lines, parses them and computes every reference
/// report in-process (which also warms the process).  With `with_server`
/// set it first starts a journalling `SweepServer`, and last warms it with
/// every client submitting every grid once, checked against the
/// references, then counts each grid's CELL frame bytes on the wire.
pub fn setup(
    workload: Workload,
    seed: u64,
    ctx: &Ctx,
    with_server: bool,
    journal: &Path,
) -> Result<Prepared, String> {
    let server = with_server
        .then(|| {
            SweepServer::start(ServerConfig {
                workers: ctx.workers,
                queue_capacity: ctx.clients.max(4),
                checkpoint_dir: Some(journal.to_path_buf()),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("starting the sweep server: {e}"))
        })
        .transpose()?;
    let runner = ctx.runner();
    let mut grids = Vec::new();
    for line in workload.grid_lines(seed) {
        let spec = GridSpec::parse(&line).map_err(|e| format!("grid line `{line}`: {e}"))?;
        let lineups = lineups_of(&line)?;
        let grid = spec.to_grid().map_err(|e| e.to_string())?;
        let reference = runner.run(&grid).map_err(|e| e.to_string())?;
        check_physics(&line, &reference)?;
        let frame_bytes = reference
            .cells()
            .iter()
            .map(|cell| FRAME_HEADER_BYTES + encode_cell(cell).len())
            .sum();
        grids.push(Grid {
            line,
            spec,
            lineups,
            reference,
            frame_bytes,
        });
    }
    if let Some(server) = &server {
        let warm = served(server, &grids, ctx, Duration::ZERO, "warm", false)?;
        if warm.tally.failed > 0 {
            return Err(format!("{} warm-up requests failed", warm.tally.failed));
        }
        let wire = wire_cell_bytes(server, &grids)?;
        for (grid, bytes) in grids.iter_mut().zip(wire) {
            grid.frame_bytes = bytes;
        }
    }
    Ok(Prepared { grids, server })
}

/// The lineups named by a grid line's `lineup=` axis (the traced sweep
/// rebuilds them around the timing adapter).
fn lineups_of(line: &str) -> Result<Vec<SchemeLineup>, String> {
    let axis = line
        .split('|')
        .find_map(|chunk| chunk.strip_prefix("lineup="))
        .ok_or_else(|| format!("grid line `{line}` names no lineup"))?;
    axis.split(',')
        .map(|token| SchemeLineup::parse(token).ok_or_else(|| format!("lineup token `{token}`")))
        .collect()
}

/// Net ≤ gross ≤ ideal energy for every scheme of every cell.
fn check_physics(line: &str, report: &SweepReport) -> Result<(), String> {
    for cell in report.cells() {
        for scheme in cell.report().reports() {
            let net = scheme.net_energy().value();
            let gross = scheme.gross_energy().value();
            let ideal = scheme.ideal_energy().value();
            let slack = 1e-9 * ideal.abs().max(1.0);
            let ordered = net <= gross + slack && gross <= ideal + slack;
            if !(ordered && net.is_finite() && ideal.is_finite()) {
                return Err(format!(
                    "`{line}` cell {}: {} breaks net ≤ gross ≤ ideal \
                     ({net} J, {gross} J, {ideal} J)",
                    cell.key(),
                    scheme.scheme()
                ));
            }
        }
    }
    Ok(())
}

/// Whether `report` carries the same cells and per-scheme summaries as
/// `reference`.  The thermal-solve count is left out: it reflects how warm
/// the trace cache was, not what the sweep computed.
fn same_outputs(report: &SweepReport, reference: &SweepReport) -> bool {
    report.cells() == reference.cells() && report.summaries() == reference.summaries()
}

/// Timings and counts of a run of requests.
#[derive(Debug, Default)]
pub struct Requests {
    /// Request latency, ms.
    pub request_ms: Vec<f64>,
    /// Latency until the first cell reached the caller, ms.
    pub first_cell_ms: Vec<f64>,
    /// SUBMIT → ACCEPTED, ms (served requests only).
    pub accept_ms: Vec<f64>,
    /// Time between consecutive CELL frames of one request, ms (served
    /// requests only).
    pub cell_gap_ms: Vec<f64>,
    /// Request latency per grid of the pool, ms.
    pub per_grid_ms: Vec<Vec<f64>>,
    /// Each completed request's (start, end) in seconds since the run
    /// began, with its cell count; entry `i` describes the same request as
    /// `request_ms[i]` and `first_cell_ms[i]`.
    pub spans: Vec<(f64, f64, usize)>,
    /// Cells delivered.
    pub cells: usize,
    /// CELL frame bytes of the delivered cells.
    pub frame_bytes: usize,
    /// Wall time of the whole run, s.
    pub wall_s: f64,
    /// Attempted and failed requests.
    pub tally: Tally,
    /// A few delivered cells, for the codec and journal probes.
    pub sample_cells: Vec<SweepCellReport>,
    /// Pre-solve planner figures of the first report of every grid:
    /// (planned, solved, wall ms).
    pub presolve: Vec<(usize, usize, f64)>,
    /// Trace-cache (hits, misses) of the first request of every grid.
    pub cache: Vec<(usize, usize)>,
}

impl Requests {
    /// An empty record for a pool of `grids` grids.
    pub fn new(grids: usize) -> Self {
        Self {
            per_grid_ms: vec![Vec::new(); grids],
            ..Self::default()
        }
    }

    /// Appends another run's samples and counts (wall times add up).
    pub fn merge(&mut self, other: Self) {
        self.wall_s += other.wall_s;
        self.request_ms.extend(other.request_ms);
        self.first_cell_ms.extend(other.first_cell_ms);
        self.accept_ms.extend(other.accept_ms);
        self.cell_gap_ms.extend(other.cell_gap_ms);
        self.spans.extend(other.spans);
        for (mine, theirs) in self.per_grid_ms.iter_mut().zip(other.per_grid_ms) {
            mine.extend(theirs);
        }
        self.cells += other.cells;
        self.frame_bytes += other.frame_bytes;
        self.tally.merge(other.tally);
        if self.presolve.is_empty() {
            self.presolve = other.presolve;
            self.cache = other.cache;
        }
        let room = SAMPLE_CELLS.saturating_sub(self.sample_cells.len());
        self.sample_cells
            .extend(other.sample_cells.into_iter().take(room));
    }

    /// Delivered cells per second of wall time.
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall_s
    }
}

const SAMPLE_CELLS: usize = 64;

/// How in-process requests build their grids.
#[derive(Clone, Copy)]
pub enum InProcess<'a> {
    /// A fresh grid and trace cache per request: each request pays its own
    /// thermal solves, as a one-shot `SweepRunner` caller does.
    Fresh,
    /// Fresh grids whose schemes go through the timing adapter.
    Traced(&'a Arc<DecideLog>),
    /// Grids sharing one warm trace cache across requests, as the service
    /// shares its cache.
    Shared(&'a TraceCache),
}

/// Runs in-process sweeps of the pool's grids in order, round after round,
/// until `duration` has passed (at least one round).  Every report must
/// equal its reference.
pub fn in_process(
    grids: &[Grid],
    ctx: &Ctx,
    mode: InProcess<'_>,
    duration: Duration,
) -> Result<Requests, String> {
    let runner = ctx.runner();
    let mut out = Requests::new(grids.len());
    let start = Instant::now();
    for index in (0..grids.len()).cycle() {
        if index == 0 && out.tally.attempted > 0 && start.elapsed() >= duration {
            break;
        }
        let grid = &grids[index];
        let span_start = start.elapsed().as_secs_f64();
        let built = match mode {
            InProcess::Fresh => grid.spec.to_grid(),
            InProcess::Traced(log) => grid
                .spec
                .to_builder()
                .lineups(grid.lineups.iter().map(|lineup| traced_lineup(lineup, log)))
                .build(),
            InProcess::Shared(cache) => grid.spec.to_grid_with_cache(cache.clone()),
        }
        .map_err(|e| e.to_string())?;
        let request_start = Instant::now();
        let outcome = runner.run(&built);
        let ms = request_start.elapsed().as_secs_f64() * 1e3;
        let span_end = start.elapsed().as_secs_f64();
        let report = match outcome {
            Ok(report) => report,
            Err(_) => {
                out.tally.record(Outcome::Failed);
                continue;
            }
        };
        out.tally.record(Outcome::Completed);
        if !same_outputs(&report, &grid.reference) {
            return Err(format!(
                "in-process sweep of `{}` differs from its reference",
                grid.line
            ));
        }
        out.request_ms.push(ms);
        // `SweepRunner::run` hands every cell over when it returns.
        out.first_cell_ms.push(ms);
        out.per_grid_ms[index].push(ms);
        out.spans.push((span_start, span_end, report.cells().len()));
        out.cells += report.cells().len();
        out.frame_bytes += grid.frame_bytes;
        if out.presolve.len() == index {
            let presolve = report.presolve().ok_or("sweep ran without the planner")?;
            out.presolve.push((
                presolve.planned(),
                presolve.solved(),
                presolve.wall().as_secs_f64() * 1e3,
            ));
            let cache = built.trace_cache().ok_or("grid has no trace cache")?;
            out.cache.push((cache.hits(), cache.misses()));
        }
        if out.sample_cells.len() < SAMPLE_CELLS {
            out.sample_cells
                .extend(report.cells().iter().take(2).cloned());
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs `ctx.clients` closed-loop clients against `server` until
/// `duration` has passed and each has submitted every grid of the pool at
/// least once: each submits the pool's grids back to back, starting at its
/// own offset, and checks every report against the reference.  With `trace` set, clients also time admission and the gaps
/// between CELL frames.
pub fn served(
    server: &SweepServer,
    grids: &[Grid],
    ctx: &Ctx,
    duration: Duration,
    tag: &str,
    trace: bool,
) -> Result<Requests, String> {
    let addr = server.addr();
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes: Vec<Result<Requests, String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients)
            .map(|client_index| {
                scope.spawn(move || -> Result<Requests, String> {
                    let mut out = Requests::new(grids.len());
                    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
                    let mut n = 0usize;
                    while n < grids.len() || Instant::now() < deadline {
                        let index = (client_index + n) % grids.len();
                        let id = format!("{tag}-c{client_index}-r{n}");
                        n += 1;
                        let span_start = start.elapsed().as_secs_f64();
                        let (outcome, timing) =
                            submit(&mut client, &id, &grids[index], trace.then_some(&mut out))?;
                        out.tally.record(outcome);
                        match (outcome, timing) {
                            (Outcome::Completed, Some(timing)) => {
                                out.request_ms.push(timing.done_ms);
                                out.first_cell_ms.push(timing.first_cell_ms);
                                out.per_grid_ms[index].push(timing.done_ms);
                                let cells = grids[index].reference.cells().len();
                                let span_end = span_start + timing.done_ms / 1e3;
                                out.spans.push((span_start, span_end, cells));
                                out.cells += cells;
                                out.frame_bytes += grids[index].frame_bytes;
                            }
                            (Outcome::Failed, _) => {
                                // The connection may be gone with the request.
                                client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
                            }
                            _ => {}
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut out = Requests::new(grids.len());
    for outcome in outcomes {
        out.merge(outcome?);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Latencies of one completed served request.
struct Timing {
    first_cell_ms: f64,
    done_ms: f64,
}

/// Submits one grid and drains its stream.  A REJECTED or an ERROR is an
/// outcome, not an error; a report that differs from the reference is an
/// error.  With `trace` set, admission time, CELL gaps and a few cells are
/// recorded into it.
fn submit(
    client: &mut ServeClient,
    id: &str,
    grid: &Grid,
    mut trace: Option<&mut Requests>,
) -> Result<(Outcome, Option<Timing>), String> {
    let request = SubmitRequest {
        id: id.to_owned(),
        grid: grid.spec.clone(),
        policy: Ctx::policy(),
    };
    let start = Instant::now();
    let mut stream = match client.submit(&request) {
        Ok(stream) => stream,
        Err(ServeError::Rejected(_)) => return Ok((Outcome::Rejected, None)),
        Err(_) => return Ok((Outcome::Failed, None)),
    };
    if let Some(trace) = trace.as_deref_mut() {
        trace.accept_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut cells = Vec::with_capacity(grid.reference.cells().len());
    let mut first_cell_ms = None;
    let mut last = Instant::now();
    loop {
        match stream.next_cell() {
            Ok(Some(cell)) => {
                let now = Instant::now();
                if first_cell_ms.is_none() {
                    first_cell_ms = Some((now - start).as_secs_f64() * 1e3);
                } else if let Some(trace) = trace.as_deref_mut() {
                    trace.cell_gap_ms.push((now - last).as_secs_f64() * 1e3);
                }
                last = now;
                cells.push(cell.clone());
            }
            Ok(None) => break,
            Err(_) => return Ok((Outcome::Failed, None)),
        }
    }
    let done_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = SweepReport::from_cells(cells, 0);
    if !same_outputs(&report, &grid.reference) {
        return Err(format!(
            "served sweep `{id}` of `{}` differs from in-process",
            grid.line
        ));
    }
    if let Some(trace) = trace {
        if trace.sample_cells.len() < SAMPLE_CELLS {
            trace
                .sample_cells
                .extend(report.cells().iter().take(2).cloned());
        }
    }
    let timing = Timing {
        first_cell_ms: first_cell_ms.unwrap_or(done_ms),
        done_ms,
    };
    Ok((Outcome::Completed, Some(timing)))
}

/// The service's counters.
pub fn server_stats(server: &SweepServer) -> Result<StatsReply, String> {
    ServeClient::connect(server.addr())
        .and_then(|mut client| client.stats())
        .map_err(|e| format!("STATS: {e}"))
}

/// Each grid's CELL frame bytes as they cross the wire: one client submits
/// every grid once through a loopback relay that passes the service's
/// replies on frame by frame and adds up the CELL frames' bytes (length
/// prefix, kind byte and payload) as received.
fn wire_cell_bytes(server: &SweepServer, grids: &[Grid]) -> Result<Vec<usize>, String> {
    let io = |e: io::Error| format!("wire relay: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut client =
        ServeClient::connect(listener.local_addr().map_err(io)?).map_err(|e| e.to_string())?;
    let (client_side, _) = listener.accept().map_err(io)?;
    let server_side = TcpStream::connect(server.addr()).map_err(io)?;
    for side in [&client_side, &server_side] {
        side.set_nodelay(true).map_err(io)?;
    }
    let (mut requests, mut upstream) = (
        client_side.try_clone().map_err(io)?,
        server_side.try_clone().map_err(io)?,
    );
    let (mut replies, mut downstream) = (server_side, client_side);
    let counted = AtomicUsize::new(0);
    thread::scope(|scope| {
        let forward = scope.spawn(move || {
            let copied = io::copy(&mut requests, &mut upstream);
            let _ = upstream.shutdown(Shutdown::Write);
            copied.map(drop)
        });
        let back = scope.spawn(|| -> io::Result<()> {
            let mut prefix = [0_u8; 4];
            let relayed = loop {
                match replies.read_exact(&mut prefix) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break Ok(()),
                    Err(e) => break Err(e),
                }
                let mut body = vec![0_u8; u32::from_be_bytes(prefix) as usize];
                if let Err(e) = replies.read_exact(&mut body) {
                    break Err(e);
                }
                if body.first() == Some(&FrameKind::Cell.byte()) {
                    counted.fetch_add(prefix.len() + body.len(), Ordering::SeqCst);
                }
                let written = downstream
                    .write_all(&prefix)
                    .and_then(|()| downstream.write_all(&body));
                if let Err(e) = written {
                    break Err(e);
                }
            };
            let _ = downstream.shutdown(Shutdown::Both);
            relayed
        });
        let mut measured = || -> Result<Vec<usize>, String> {
            let mut bytes = Vec::with_capacity(grids.len());
            for (index, grid) in grids.iter().enumerate() {
                let before = counted.load(Ordering::SeqCst);
                match submit(&mut client, &format!("wire-{index}"), grid, None)? {
                    (Outcome::Completed, _) => {}
                    (outcome, _) => {
                        return Err(format!("wire count of `{}`: {outcome:?}", grid.line))
                    }
                }
                // The relay counts a frame before passing it on, so every
                // CELL frame of this stream is counted once DONE has arrived.
                bytes.push(counted.load(Ordering::SeqCst) - before);
            }
            Ok(bytes)
        };
        let bytes = measured();
        // Closing the client ends the relay: the service sees EOF and
        // closes its side in turn.
        drop(client);
        let forwarded = forward.join().expect("the relay does not panic");
        let relayed = back.join().expect("the relay does not panic");
        let bytes = bytes?;
        forwarded.and(relayed).map_err(io)?;
        Ok(bytes)
    })
}
