//! The phases of a server workload, spread over several `semitri-cli
//! serve` processes.
//!
//! A serving process can start in a slow or a fast state (where its
//! threads land, how its allocator arenas form) and keep it for its
//! life. So each run measures [`SERVERS`] processes in turn, each with
//! its share of the open and closed loops, and reports the mean of the
//! per-process figures.

use crate::client::{Conn, ServerChild};
use crate::load::{self, Phase, Script, REQUEST};
use crate::report::Report;
use crate::{stats, Opts, WARMUP_S};
use std::io;

/// Serving processes per run.
pub const SERVERS: usize = 3;
/// Processes spawned per run, serving or not (every third serves);
/// `setup_s` is the median of their set-up times.
pub const SPAWNS: usize = 9;
/// Open-loop requests per latency chunk: a process's `p50_ms` is the
/// median of its per-chunk medians, and a chunk of 1000 leaves ten
/// samples beyond its p99.
pub const LATENCY_CHUNK: usize = 1_000;

/// The hooks a workload gives [`run`].
pub trait Workload<S> {
    /// Spawns server process `i` (a fresh one: new log, no sessions).
    fn spawn(&mut self, i: usize) -> io::Result<ServerChild>;
    /// Readies the scripts for a fresh server process; `publishing` is on
    /// only for the closed loop.
    fn prepare(&mut self, scripts: &mut [S], publishing: bool);
    /// Checks what server process `i` left behind, after it stopped.
    fn after(&mut self, i: usize, scripts: &mut [S], report: &mut Report) -> io::Result<()>;
}

/// Runs every phase on [`SERVERS`] processes and reports the end-to-end
/// metrics the server workloads share. Returns the closed-loop phases
/// (for workload-specific figures).
pub fn run<S: Script<Conn>>(
    opts: &Opts,
    report: &mut Report,
    workload: &mut impl Workload<S>,
    scripts: &mut [S],
    open_rps: f64,
    window: usize,
) -> io::Result<Vec<Phase>> {
    let mut setups = Vec::new();
    let (mut rates, mut p50s, mut p99s, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cpu_per_fix = Vec::new();
    let (mut open_n, mut closed_n, mut closed_wall) = (0usize, 0usize, 0.0);
    let mut closed_phases = Vec::new();
    let mut last_open = Phase::default();
    for i in 0..SPAWNS {
        let server = workload.spawn(i)?;
        setups.push(server.setup_s);
        // spawns 0, 1 of every three are set-up samples only (dropping
        // one stops the child), so the samples spread over the run
        if i % (SPAWNS / SERVERS) != SPAWNS / SERVERS - 1 {
            continue;
        }
        let connect = || Conn::connect(server.addr);
        workload.prepare(scripts, false);
        let warm = load::closed_loop(connect, scripts, window, WARMUP_S, &mut || {});
        let mut samples = Vec::new();
        let open = load::open_loop(
            connect,
            scripts,
            open_rps,
            opts.open_s() / SERVERS as f64,
            &mut || samples.extend(server.rss_mb()),
        );
        workload.prepare(scripts, true);
        let cpu0 = server.cpu_s();
        let closed = load::closed_loop(
            connect,
            scripts,
            window,
            opts.closed_s() / SERVERS as f64,
            &mut || {},
        );
        let cpu = server.cpu_s().zip(cpu0).map(|(b, a)| b - a);
        drop(server);
        for phase in [&warm, &open, &closed] {
            let (a, f) = phase.tally();
            report.tally.add(a, f, "requests");
        }
        workload.after(i, scripts, report)?;

        // medians over one-second slices and 1000-request chunks, so a
        // stall confined to one slice or chunk does not set the figure
        rates.extend(stats::median(&closed.window_rates(1.0)));
        let fixes: u64 = closed
            .samples
            .iter()
            .filter(|s| s.step.ok)
            .map(|s| s.step.fixes)
            .sum();
        cpu_per_fix.extend(cpu.map(|c| c * 1e6 / fixes.max(1) as f64));
        p50s.extend(stats::median(&open.chunk_percentiles(
            REQUEST,
            LATENCY_CHUNK,
            0.5,
        )));
        p99s.extend(stats::median(&open.chunk_percentiles(
            REQUEST,
            LATENCY_CHUNK,
            0.99,
        )));
        rss.extend(stats::median(&samples));
        println!(
            "process {}: closed {:.0} fix/s at {:.4} CPU us/fix, open p50 {:.4} ms, p99 {:.4} ms, rss {:.1} MB",
            i / (SPAWNS / SERVERS) + 1,
            rates.last().unwrap_or(&0.0),
            cpu_per_fix.last().unwrap_or(&0.0),
            p50s.last().unwrap_or(&0.0),
            p99s.last().unwrap_or(&0.0),
            rss.last().unwrap_or(&0.0)
        );
        open_n += open.count(REQUEST);
        closed_n += closed.count(REQUEST);
        closed_wall += closed.wall_s;
        closed_phases.push(closed);
        last_open = open;
    }
    let mean = |v: &[f64]| (v.len() == SERVERS).then(|| v.iter().sum::<f64>() / v.len() as f64);
    report.gate(
        "setup_s",
        stats::median(&setups).unwrap_or(0.0),
        "s",
        setups.len(),
    );
    report.gate_opt("cpu_us_per_fix", mean(&cpu_per_fix), "us/fix", closed_n);
    report.gate_opt("rss_mb", mean(&rss), "MB", SERVERS);
    // printed, not gated: on a shared 2-vCPU machine wall-clock figures
    // are set by fsync, vCPU steal and slow spells of the host as often
    // as by the program, and between runs they move by more than any
    // usable bound
    for (name, v, unit, n) in [
        ("fixes_per_s", mean(&rates), "fix/s", closed_n),
        ("p50_ms", mean(&p50s), "ms", open_n),
        ("p99_ms", mean(&p99s), "ms", open_n),
    ] {
        match v {
            Some(v) => report.info(name, v, unit, n),
            None => report.require(false, || format!("{name}: not reportable from {n} samples")),
        }
    }
    report.info(
        "closed_req_per_s",
        closed_n as f64 / closed_wall.max(1e-9),
        "req/s",
        closed_n,
    );
    // backlog: the last tenth of an open loop should be sent about on time
    let late = last_open.lateness_ms();
    let tail = &late[late.len() - late.len() / 10..];
    report.info(
        "open_tail_lateness_ms",
        stats::median(tail).unwrap_or(0.0),
        "ms",
        tail.len(),
    );
    Ok(closed_phases)
}
