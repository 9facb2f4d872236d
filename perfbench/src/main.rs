//! `semitri-perfbench` — the end-to-end and per-layer benchmark of the
//! SeMiTri user surfaces.
//!
//! ```text
//! semitri-perfbench --cli <semitri-cli> --workload <annotate_taxi|stream_phones|warehouse_milan>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs end to end (the two server
//! workloads against a `semitri-cli serve` child) and the result line
//! carries the end-to-end metrics. With `--trace 1` the workload's inputs
//! are replayed in-process through each layer with spans, and the result
//! line carries the per-layer metrics. Human-readable lines come first;
//! the last line of stdout is the JSON result. See `perfbench/README.md`.

mod client;
mod layers;
mod load;
mod phones;
mod report;
mod serve;
mod stats;
mod taxi;
mod trace;
mod warehouse;

use report::Report;
use semitri::prelude::*;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Load connections (and load threads) of the server workloads.
pub const CONNS: usize = 2;
/// Closed-loop warm-up before the measured phases, s.
pub const WARMUP_S: f64 = 0.5;

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// The `semitri-cli` binary.
    pub cli: PathBuf,
    /// Scratch directory of this run (logs, server stdout).
    pub work: PathBuf,
}

impl Opts {
    /// Length of the closed-loop phases together, s.
    pub fn closed_s(&self) -> f64 {
        self.seconds / 3.0
    }

    /// Length of the open-loop phases together, s.
    pub fn open_s(&self) -> f64 {
        self.seconds * 2.0 / 3.0
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["annotate_taxi", "stream_phones", "warehouse_milan"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.unwrap_or(30.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(".perfbench").join(format!("run-{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        cli: cli.ok_or("--cli is required")?,
        work,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the program's sources, so a
/// result names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(opts: &Opts) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance workload={} trace={} seed={} held_out_seed={} seconds={} closed_s={:.3} open_s={:.3} warmup_s={WARMUP_S} \
         nproc={nproc} cpu=\"{cpu}\" commit={} source_fnv={} rustc=\"{}\"",
        opts.workload,
        u8::from(opts.trace),
        opts.seed,
        HELD_OUT_SEED,
        opts.seconds,
        opts.closed_s(),
        opts.open_s(),
        command_line("git", &["rev-parse", "HEAD"]),
        source_digest(),
        command_line("rustc", &["-V"]),
    )
}

/// A seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7_919;

fn run(opts: &Opts, report: &mut Report) -> std::io::Result<()> {
    if opts.trace {
        let (city, feeds, config, policy, sessions_primary) = match opts.workload.as_str() {
            "annotate_taxi" => {
                let (d, f) = taxi::feeds(opts.seed);
                (
                    d.city,
                    f,
                    warehouse::vehicle_config as fn() -> PipelineConfig,
                    VelocityPolicy::vehicles(),
                    false,
                )
            }
            "stream_phones" => {
                let (d, f) = phones::feeds(opts.seed);
                (
                    d.city,
                    f,
                    PipelineConfig::default as fn() -> PipelineConfig,
                    VelocityPolicy::default(),
                    true,
                )
            }
            _ => {
                let (d, f) = warehouse::feeds(opts.seed);
                (
                    d.city,
                    f,
                    warehouse::vehicle_config as fn() -> PipelineConfig,
                    VelocityPolicy::vehicles(),
                    false,
                )
            }
        };
        return layers::run(
            opts,
            report,
            layers::Inputs {
                city,
                feeds,
                config,
                policy,
                sessions_primary,
            },
        );
    }
    match opts.workload.as_str() {
        "annotate_taxi" => taxi::run(opts, report),
        "stream_phones" => phones::run(opts, report),
        _ => warehouse::run(opts, report),
    }
}

fn sync_disks() {
    let _ = Command::new("sync").status();
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&opts));
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    // start from, and leave, a disk with nothing pending: the runs write
    // and delete durable logs of tens of MB
    sync_disks();
    let outcome = run(&opts, &mut report);
    let _ = std::fs::remove_dir_all(&opts.work);
    sync_disks();
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", opts.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", report.lines());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
