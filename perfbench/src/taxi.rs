//! `annotate_taxi`: `POST /annotate` of dense 1 s taxi shifts against
//! `semitri-cli serve taxis` with a write-through durable store.

use crate::client::{Conn, ServerChild};
use crate::load::{Script, Step, REQUEST};
use crate::report::{Report, Tally};
use crate::serve::{self, Workload};
use crate::{stats, Opts};
use semitri::prelude::*;
use semitri::store::SemanticTrajectoryStore;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Days of `lausanne_taxis`: two shifts a day, so 16 distinct feeds.
pub const DAYS: usize = 8;
/// Open-loop rate over both connections, requests/s.
pub const OPEN_RPS: f64 = 200.0;

/// One distinct shift, pre-rendered, with its expected response.
pub struct Shift {
    object_id: u64,
    /// The fix lines of the request body (the header line varies).
    fixes: Vec<u8>,
    fix_count: u64,
    /// The expected response after the summary line's id prefix.
    tail: Vec<u8>,
    /// Fixes the pipeline keeps after cleaning (the stored record count).
    kept: u64,
}

/// The fix lines of a feed in the wire format.
pub fn render_fixes(records: &[GpsRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 48);
    for r in records {
        let _ = writeln!(
            out,
            "{{\"x\":{},\"y\":{},\"t\":{}}}",
            r.point.x, r.point.y, r.t.0
        );
    }
    out
}

fn header(object_id: u64, trajectory_id: u64) -> String {
    format!("{{\"object_id\":{object_id},\"trajectory_id\":{trajectory_id}}}\n")
}

fn summary_prefix(object_id: u64, trajectory_id: u64) -> String {
    format!("{{\"type\":\"summary\",\"object_id\":{object_id},\"trajectory_id\":{trajectory_id},")
}

/// The generated inputs: the dataset and its shifts as feeds.
pub fn feeds(seed: u64) -> (Dataset, Vec<GpsFeed>) {
    let dataset = lausanne_taxis(DAYS, seed);
    let feeds = dataset
        .tracks
        .iter()
        .map(|t| GpsFeed::new(t.object_id, t.trajectory_id, t.records.clone()))
        .collect();
    (dataset, feeds)
}

/// Runs `semitri-cli annotate taxis <seed>` on every shift, two at a
/// time, and keeps each output as the expected response.
fn expected(opts: &Opts, feeds: &[GpsFeed]) -> io::Result<Vec<Shift>> {
    let mut shifts = Vec::with_capacity(feeds.len());
    for pair in feeds.chunks(2) {
        let children = pair
            .iter()
            .map(|f| {
                let mut child = Command::new(&opts.cli)
                    .args(["annotate", "taxis", &opts.seed.to_string()])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let fixes = render_fixes(&f.records);
                let mut stdin = child.stdin.take().expect("piped stdin");
                stdin.write_all(header(f.object_id, 0).as_bytes())?;
                stdin.write_all(&fixes)?;
                drop(stdin);
                Ok((child, fixes))
            })
            .collect::<io::Result<Vec<_>>>()?;
        for ((child, fixes), f) in children.into_iter().zip(pair) {
            let out = child.wait_with_output()?;
            let prefix = summary_prefix(f.object_id, 0);
            if !out.status.success() || !out.stdout.starts_with(prefix.as_bytes()) {
                return Err(io::Error::other(format!(
                    "semitri-cli annotate failed on shift {}",
                    f.trajectory_id
                )));
            }
            let tail = out.stdout[prefix.len()..].to_vec();
            let kept = field_u64(&tail, "\"kept\":")
                .ok_or_else(|| io::Error::other("annotate summary without a kept count"))?;
            shifts.push(Shift {
                object_id: f.object_id,
                fixes,
                fix_count: f.records.len() as u64,
                tail,
                kept,
            });
        }
    }
    Ok(shifts)
}

/// The unsigned integer following `key` in `text`.
pub fn field_u64(text: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(text).ok()?;
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct TaxiScript {
    shifts: Arc<Vec<Shift>>,
    next_id: Arc<AtomicU64>,
    cursor: usize,
    stride: usize,
    /// `(trajectory id, shift)` of each request in flight.
    flight: VecDeque<(u64, usize)>,
    /// `(trajectory id, shift)` of every request answered correctly.
    served: Vec<(u64, usize)>,
    tally: Tally,
}

impl Script<Conn> for TaxiScript {
    fn send(&mut self, conn: &mut Conn) -> io::Result<()> {
        let k = self.cursor % self.shifts.len();
        self.cursor += self.stride;
        let shift = &self.shifts[k];
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let head = header(shift.object_id, id);
        self.flight.push_back((id, k));
        conn.send("POST", "/annotate", &[head.as_bytes(), &shift.fixes])
    }

    fn recv(&mut self, conn: &mut Conn) -> io::Result<Step> {
        let (status, body) = conn.recv()?;
        let (id, k) = self.flight.pop_front().expect("a request in flight");
        let shift = &self.shifts[k];
        let prefix = summary_prefix(shift.object_id, id);
        let ok = status == 200
            && body.len() == prefix.len() + shift.tail.len()
            && body.starts_with(prefix.as_bytes())
            && body[prefix.len()..] == shift.tail[..];
        self.tally.check(ok, || {
            format!("/annotate of shift {k} answered {status}, not the CLI's output")
        });
        if ok {
            self.served.push((id, k));
        }
        Ok(Step {
            ok,
            fixes: shift.fix_count,
            class: REQUEST,
        })
    }

    fn abandon(&mut self) {
        self.flight.clear();
    }
}

/// The serving processes of one run, each with its own fresh log.
struct Taxi<'a> {
    opts: &'a Opts,
    shifts: Arc<Vec<Shift>>,
    log_start: u64,
    log_bytes: u64,
    stored_fixes: u64,
    reopens: Vec<f64>,
}

impl Taxi<'_> {
    fn log(&self, i: usize) -> PathBuf {
        self.opts.work.join(format!("annotate_taxi-{i}.stlog"))
    }
}

impl Workload<TaxiScript> for Taxi<'_> {
    fn spawn(&mut self, i: usize) -> io::Result<ServerChild> {
        let log = self.log(i);
        let out = self.opts.work.join(format!("serve-{i}.out"));
        let server = ServerChild::spawn(&self.opts.cli, "taxis", self.opts.seed, Some(&log), &out)?;
        self.log_start = std::fs::metadata(&log)?.len();
        Ok(server)
    }

    fn prepare(&mut self, _: &mut [TaxiScript], _: bool) {}

    /// The reopened log holds exactly the trajectories that were served.
    fn after(
        &mut self,
        i: usize,
        scripts: &mut [TaxiScript],
        report: &mut Report,
    ) -> io::Result<()> {
        let mut served = Vec::new();
        for s in scripts.iter_mut() {
            served.append(&mut s.served);
            report.tally.why.append(&mut s.tally.why);
        }
        report.tally.why.truncate(8);
        let log = self.log(i);
        let t0 = Instant::now();
        let store = SemanticTrajectoryStore::open_durable(&log)
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.reopens.push(t0.elapsed().as_secs_f64());
        let metas = store.trajectory_metas();
        let stored: BTreeSet<u64> = metas.iter().map(|m| m.trajectory_id).collect();
        let want: BTreeSet<u64> = served.iter().map(|(id, _)| *id).collect();
        report.tally.check(stored == want, || {
            format!(
                "reopened log {i} holds {} trajectories, {} were served",
                stored.len(),
                want.len()
            )
        });
        let stored_fixes: u64 = metas.iter().map(|m| m.record_count).sum();
        let want_fixes: u64 = served.iter().map(|(_, k)| self.shifts[*k].kept).sum();
        report.tally.check(stored_fixes == want_fixes, || {
            format!("reopened log {i} holds {stored_fixes} fixes, {want_fixes} were served")
        });
        self.stored_fixes += stored_fixes;
        self.log_bytes += std::fs::metadata(&log)?.len() - self.log_start;
        drop(store);
        std::fs::remove_file(&log)
    }
}

/// The end-to-end run.
pub fn run(opts: &Opts, report: &mut Report) -> io::Result<()> {
    let (_, feeds) = feeds(opts.seed);
    let shifts = Arc::new(expected(opts, &feeds)?);
    let fixes: u64 = shifts.iter().map(|s| s.fix_count).sum();
    println!(
        "corpus: {} distinct shifts, {} fixes ({:.0} per shift)",
        shifts.len(),
        fixes,
        fixes as f64 / shifts.len() as f64
    );
    let next_id = Arc::new(AtomicU64::new(1));
    let mut scripts: Vec<TaxiScript> = (0..crate::CONNS)
        .map(|j| TaxiScript {
            shifts: shifts.clone(),
            next_id: next_id.clone(),
            cursor: j,
            stride: crate::CONNS,
            flight: VecDeque::new(),
            served: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    let mut taxi = Taxi {
        opts,
        shifts,
        log_start: 0,
        log_bytes: 0,
        stored_fixes: 0,
        reopens: Vec::new(),
    };
    serve::run(opts, report, &mut taxi, &mut scripts, OPEN_RPS, 1)?;
    report.info(
        "log_bytes_per_fix",
        taxi.log_bytes as f64 / taxi.stored_fixes.max(1) as f64,
        "B/fix",
        taxi.stored_fixes as usize,
    );
    report.info(
        "reopen_s",
        stats::median(&taxi.reopens).unwrap_or(0.0),
        "s",
        taxi.reopens.len(),
    );
    Ok(())
}
