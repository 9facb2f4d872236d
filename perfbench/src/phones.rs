//! `stream_phones`: many small streaming-session pushes against
//! `semitri-cli serve phones` (no store), with a fixed schedule of small
//! map publishes in a corner no track touches.

use crate::client::{Conn, ServerChild};
use crate::load::{Script, Step, PUBLISH, REQUEST};
use crate::report::{Report, Tally};
use crate::serve::{self, Workload};
use crate::taxi::{field_u64, render_fixes};
use crate::{stats, Opts};
use semitri::core::StreamingAnnotator;
use semitri::prelude::*;
use semitri::server::wire;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// Users of `smartphone_users`.
pub const USERS: usize = 64;
/// Days per user; every user-day is one session.
pub const DAYS: usize = 7;
/// Fixes per push (about 5 min at 10 s sampling).
pub const PUSH_FIXES: usize = 30;
/// Sessions each connection keeps open at once (two connections: 64
/// open sessions over the server's 16 shards).
pub const OPEN_SESSIONS: usize = 32;
/// In the closed loop, connection 0 publishes one map edit every this
/// many requests.
pub const PUBLISH_EVERY: usize = 25_000;
/// Closed-loop requests in flight per connection (pipelined), so the
/// server is kept busy rather than waiting on client round trips.
pub const WINDOW: usize = 4;
/// Open-loop rate over both connections, requests/s.
pub const OPEN_RPS: f64 = 10_000.0;

/// One user-day, pre-rendered, with the responses an in-process
/// streaming annotator gives for it.
pub struct Day {
    name: String,
    /// `(fix lines, fix count, expected push response)` per push.
    pushes: Vec<(Vec<u8>, u64, Vec<u8>)>,
    /// Expected flush response.
    flush: Vec<u8>,
    fixes: u64,
}

/// The generated inputs: the dataset and its user-days as feeds.
pub fn feeds(seed: u64) -> (Dataset, Vec<GpsFeed>) {
    let dataset = smartphone_users(USERS, DAYS, seed);
    let feeds = dataset
        .tracks
        .iter()
        .map(|t| GpsFeed::new(t.object_id, t.trajectory_id, t.records.clone()))
        .collect();
    (dataset, feeds)
}

/// The pipeline `semitri-cli serve phones` builds.
pub fn pipeline(city: &City) -> SeMiTri {
    SeMiTri::new(city, PipelineConfig::default())
}

fn expected(city: &City, feeds: &[GpsFeed]) -> Vec<Day> {
    let pipeline = pipeline(city);
    feeds
        .iter()
        .map(|f| {
            let mut annotator = StreamingAnnotator::over(&pipeline, VelocityPolicy::default());
            let pushes = f
                .records
                .chunks(PUSH_FIXES)
                .map(|chunk| {
                    let events: Vec<_> = chunk.iter().flat_map(|&r| annotator.push(r)).collect();
                    (
                        render_fixes(chunk),
                        chunk.len() as u64,
                        wire::encode_events(&events).into_bytes(),
                    )
                })
                .collect();
            let events = annotator.flush();
            let flush = wire::encode_flush(
                &events,
                annotator.cleaning_report(),
                annotator.record_count(),
            )
            .into_bytes();
            Day {
                name: format!("u{}-t{}", f.object_id, f.trajectory_id),
                pushes,
                flush,
                fixes: f.records.len() as u64,
            }
        })
        .collect()
}

/// The corner of `bounds` (inset 150 m) farthest from every fix, and its
/// distance to the nearest fix.
pub fn far_corner(bounds: &Rect, feeds: &[GpsFeed]) -> (Point, f64) {
    let inset = 150.0;
    let corners = [
        Point::new(bounds.min_x + inset, bounds.min_y + inset),
        Point::new(bounds.max_x - inset, bounds.min_y + inset),
        Point::new(bounds.min_x + inset, bounds.max_y - inset),
        Point::new(bounds.max_x - inset, bounds.max_y - inset),
    ];
    corners
        .into_iter()
        .map(|c| {
            let d = feeds
                .iter()
                .flat_map(|f| &f.records)
                .map(|r| r.point.distance(c))
                .fold(f64::INFINITY, f64::min);
            (c, d)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four corners")
}

/// A one-road `/admin/update` body: a 100 m street at the far corner,
/// pointing into the city.
pub fn publish_body(bounds: &Rect, corner: Point, n: usize) -> String {
    let dx = if corner.x < bounds.center().x {
        100.0
    } else {
        -100.0
    };
    format!(
        "{{\"op\":\"add_road\",\"x1\":{},\"y1\":{},\"x2\":{},\"y2\":{},\"class\":\"street\",\"name\":\"perfbench-{n}\"}}\n",
        corner.x,
        corner.y,
        corner.x + dx,
        corner.y
    )
}

/// A session slot: which user-day it replays and how far it got.
struct Slot {
    day: usize,
    cycle: usize,
    next: usize,
}

/// A request in flight.
enum Sent {
    Push {
        user: String,
        day: usize,
        push: usize,
    },
    Flush {
        user: String,
        day: usize,
    },
    Publish,
}

struct PhonesScript {
    days: Arc<Vec<Day>>,
    /// The user-days this connection replays, in order.
    mine: Vec<usize>,
    queue: usize,
    slots: Vec<Slot>,
    rr: usize,
    steps: usize,
    /// Where to publish, while publishing is on.
    publish: Option<(Rect, Point)>,
    publishes: usize,
    flight: VecDeque<Sent>,
    tally: Tally,
}

impl PhonesScript {
    fn next_day(&mut self) -> Slot {
        let q = self.queue;
        self.queue += 1;
        Slot {
            day: self.mine[q % self.mine.len()],
            cycle: q / self.mine.len(),
            next: 0,
        }
    }
}

impl Script<Conn> for PhonesScript {
    fn send(&mut self, conn: &mut Conn) -> io::Result<()> {
        self.steps += 1;
        if let Some((bounds, corner)) = self.publish {
            if self.steps.is_multiple_of(PUBLISH_EVERY) {
                self.publishes += 1;
                let body = publish_body(&bounds, corner, self.publishes);
                self.flight.push_back(Sent::Publish);
                return conn.send("POST", "/admin/update", &[body.as_bytes()]);
            }
        }
        let s = self.rr % self.slots.len();
        self.rr += 1;
        let (day, next) = (self.slots[s].day, self.slots[s].next);
        let user = format!("{}-c{}", self.days[day].name, self.slots[s].cycle);
        let path = if next < self.days[day].pushes.len() {
            self.slots[s].next += 1;
            let path = format!("/session/{user}/push");
            self.flight.push_back(Sent::Push {
                user,
                day,
                push: next,
            });
            path
        } else {
            // the day is done: flush it and open the next one in its slot
            self.slots[s] = self.next_day();
            let path = format!("/session/{user}/flush");
            self.flight.push_back(Sent::Flush { user, day });
            path
        };
        let body: &[u8] = match self.flight.back() {
            Some(Sent::Push { day, push, .. }) => &self.days[*day].pushes[*push].0,
            _ => &[],
        };
        conn.send("POST", &path, &[body])
    }

    fn recv(&mut self, conn: &mut Conn) -> io::Result<Step> {
        let (status, body) = conn.recv()?;
        let sent = self.flight.pop_front().expect("a request in flight");
        let (ok, fixes, class) = match &sent {
            Sent::Publish => {
                let text = String::from_utf8_lossy(&body);
                let ok = status == 200 && text.contains("\"applied\":1");
                self.tally
                    .check(ok, || format!("/admin/update answered {status}: {text}"));
                (ok, 0, PUBLISH)
            }
            Sent::Push { user, day, push } => {
                let (_, n, want) = &self.days[*day].pushes[*push];
                let ok = status == 200 && body == *want;
                self.tally.check(ok, || {
                    format!("push {push} of session {user} answered {status}, not the in-process events")
                });
                (ok, *n, REQUEST)
            }
            Sent::Flush { user, day } => {
                let day = &self.days[*day];
                // flushed records = fixes pushed minus the fixes cleaning dropped
                let input = field_u64(&body, "\"input\":");
                let kept = field_u64(&body, "\"kept\":");
                let records = field_u64(&body, "\"records\":");
                let counts_ok = input == Some(day.fixes) && records.is_some() && records == kept;
                let ok = status == 200 && counts_ok && body == day.flush;
                self.tally.check(ok, || {
                    format!("flush of session {user} answered {status}, not the in-process flush")
                });
                (ok, 0, REQUEST)
            }
        };
        Ok(Step { ok, fixes, class })
    }

    fn abandon(&mut self) {
        self.flight.clear();
    }
}

/// The serving processes of one run.
struct Phones<'a> {
    opts: &'a Opts,
    bounds: Rect,
    corner: Point,
}

impl Workload<PhonesScript> for Phones<'_> {
    fn spawn(&mut self, i: usize) -> io::Result<ServerChild> {
        let out = self.opts.work.join(format!("serve-{i}.out"));
        ServerChild::spawn(&self.opts.cli, "phones", self.opts.seed, None, &out)
    }

    fn prepare(&mut self, scripts: &mut [PhonesScript], publishing: bool) {
        if !publishing {
            // a fresh server has no sessions: open new ones
            for s in scripts.iter_mut() {
                s.slots = (0..OPEN_SESSIONS).map(|_| s.next_day()).collect();
            }
        }
        // publishes run in the closed loop only: in the open loop one
        // would stall its connection for a whole rebuild, and the latency
        // tail would measure the few publishes in the window
        scripts[0].publish = publishing.then_some((self.bounds, self.corner));
    }

    fn after(
        &mut self,
        _: usize,
        scripts: &mut [PhonesScript],
        report: &mut Report,
    ) -> io::Result<()> {
        for s in scripts.iter_mut() {
            report.tally.why.append(&mut s.tally.why);
        }
        report.tally.why.truncate(8);
        Ok(())
    }
}

/// The end-to-end run.
pub fn run(opts: &Opts, report: &mut Report) -> io::Result<()> {
    let (dataset, feeds) = feeds(opts.seed);
    let bounds = dataset.city.bounds();
    let (corner, clearance) = far_corner(&bounds, &feeds);
    report.require(clearance >= 500.0, || {
        format!("no map corner is 500 m clear of every track (best {clearance:.0} m)")
    });
    let days = Arc::new(expected(&dataset.city, &feeds));
    let fixes: u64 = days.iter().map(|d| d.fixes).sum();
    let pushes: usize = days.iter().map(|d| d.pushes.len()).sum();
    println!(
        "corpus: {} user-days, {} fixes, {} pushes of {PUSH_FIXES} fixes; publishes at ({:.0}, {:.0}), {:.0} m from the nearest fix",
        days.len(),
        fixes,
        pushes,
        corner.x,
        corner.y,
        clearance
    );
    let mut scripts: Vec<PhonesScript> = (0..crate::CONNS)
        .map(|j| PhonesScript {
            days: days.clone(),
            mine: (j..days.len()).step_by(crate::CONNS).collect(),
            queue: 0,
            slots: Vec::new(),
            rr: 0,
            steps: 0,
            publish: None,
            publishes: 0,
            flight: VecDeque::new(),
            tally: Tally::default(),
        })
        .collect();
    let mut phones = Phones {
        opts,
        bounds,
        corner,
    };
    let closed = serve::run(opts, report, &mut phones, &mut scripts, OPEN_RPS, WINDOW)?;
    let publish_ms: Vec<f64> = closed.iter().flat_map(|p| p.service_ms(PUBLISH)).collect();
    report.require(!publish_ms.is_empty(), || "no publish ran".into());
    report.info(
        "publish_ms",
        stats::median(&publish_ms).unwrap_or(0.0),
        "ms",
        publish_ms.len(),
    );
    Ok(())
}
