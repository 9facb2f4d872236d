//! Closed- and open-loop load generation over a fixed number of
//! connections, one thread per connection.
//!
//! Each connection runs its own [`Script`]: a deterministic sequence of
//! requests whose responses the script checks itself. A closed loop sends
//! a connection's next request when the previous one completes. An open
//! loop gives every request a due time on a fixed schedule and times it
//! from that due time, so a stall also charges the wait it imposes on
//! the requests queued behind it.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// What one scripted request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The response arrived and passed the script's output check.
    pub ok: bool,
    /// GPS fixes the request carried.
    pub fixes: u64,
    /// Request class (scripts define their own; see [`REQUEST`]).
    pub class: u8,
}

/// The class of ordinary data requests.
pub const REQUEST: u8 = 0;
/// The class of map publishes (`/admin/update`).
pub const PUBLISH: u8 = 1;

/// A per-connection request sequence. A script may have several
/// requests in flight; their responses arrive in the order sent.
pub trait Script<C>: Send {
    /// Sends the next request on `conn`.
    fn send(&mut self, conn: &mut C) -> io::Result<()>;

    /// Reads and checks the response to the oldest request in flight.
    /// An `Err` means the connection broke; the loop counts every request
    /// in flight as failed, calls [`Script::abandon`] and reconnects.
    fn recv(&mut self, conn: &mut C) -> io::Result<Step>;

    /// Forgets the requests in flight on a broken connection.
    fn abandon(&mut self) {}
}

/// One timed request. Times are seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due (closed loop: when it was sent).
    pub due: f64,
    /// When it was sent.
    pub sent: f64,
    /// When its response was checked.
    pub done: f64,
    /// See [`Step`]; a broken connection is `ok = false, fixes = 0`.
    pub step: Step,
}

impl Sample {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the request was sent, in ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// The samples of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// From phase start to the last response, seconds.
    pub wall_s: f64,
    /// Every request of every connection.
    pub samples: Vec<Sample>,
}

impl Phase {
    /// Service times (ms, from send) of one class, successful only.
    pub fn service_ms(&self, class: u8) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.step.class == class && s.step.ok)
            .map(|s| (s.done - s.sent) * 1e3)
            .collect()
    }

    /// Generator lateness (ms) of every request, in due order per
    /// connection.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::lateness_ms).collect()
    }

    /// Fixes of successful requests per second within each full
    /// `window_s`-long slice of the phase, by completion time. A median
    /// over slices shrugs off a stall confined to one slice.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let slices = (self.wall_s / window_s).floor() as usize;
        let mut fixes = vec![0u64; slices];
        for s in self.samples.iter().filter(|s| s.step.ok) {
            if let Some(f) = fixes.get_mut((s.done / window_s) as usize) {
                *f += s.step.fixes;
            }
        }
        fixes.into_iter().map(|f| f as f64 / window_s).collect()
    }

    /// The nearest-rank `q` percentile of latency (ms, from due time;
    /// failures infinite) within each full chunk of `chunk` consecutive
    /// requests of one class, in due order.
    pub fn chunk_percentiles(&self, class: u8, chunk: usize, q: f64) -> Vec<f64> {
        let mut by_due: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.step.class == class)
            .collect();
        by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
        by_due
            .chunks_exact(chunk)
            .filter_map(|c| {
                let lat: Vec<f64> = c
                    .iter()
                    .map(|s| {
                        if s.step.ok {
                            s.latency_ms()
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect();
                crate::stats::tail(&crate::stats::sorted(&lat), q)
            })
            .collect()
    }

    /// Requests of one class.
    pub fn count(&self, class: u8) -> usize {
        self.samples
            .iter()
            .filter(|s| s.step.class == class)
            .count()
    }

    /// `(attempted, failed)` over every request.
    pub fn tally(&self) -> (u64, u64) {
        let failed = self.samples.iter().filter(|s| !s.step.ok).count();
        (self.samples.len() as u64, failed as u64)
    }
}

const BROKEN: Step = Step {
    ok: false,
    fixes: 0,
    class: REQUEST,
};

/// Drives one connection. `due_of(k)` gives request `k`'s due time (s
/// from `t0`), or `None` when the phase has no request `k`; at most
/// `window` requests are in flight at once.
fn run_one<C, S: Script<C>>(
    connect: &(impl Fn() -> io::Result<C> + Sync),
    script: &mut S,
    t0: Instant,
    window: usize,
    due_of: impl Fn(usize) -> Option<f64>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = connect().ok();
    // (due, sent) of the requests in flight, oldest first
    let mut flight: VecDeque<(f64, f64)> = VecDeque::new();
    let mut k = 0usize;
    let mut next = due_of(0);
    loop {
        if let Some(due) = next.filter(|_| flight.len() < window) {
            let now = t0.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let sent = t0.elapsed().as_secs_f64();
            k += 1;
            next = due_of(k);
            let ok = match conn.as_mut() {
                Some(c) => script.send(c).is_ok(),
                None => false,
            };
            flight.push_back((due, sent));
            if ok {
                continue;
            }
        } else if flight.is_empty() {
            break;
        } else {
            let step = match conn.as_mut() {
                Some(c) => script.recv(c),
                None => Err(io::Error::other("not connected")),
            };
            if let Ok(step) = step {
                let (due, sent) = flight.pop_front().expect("in flight");
                let done = t0.elapsed().as_secs_f64();
                samples.push(Sample {
                    due,
                    sent,
                    done,
                    step,
                });
                continue;
            }
        }
        // the connection broke: everything in flight failed
        let done = t0.elapsed().as_secs_f64();
        for (due, sent) in flight.drain(..) {
            samples.push(Sample {
                due,
                sent,
                done,
                step: BROKEN,
            });
        }
        script.abandon();
        conn = connect().ok();
    }
    samples
}

/// Runs one thread per script while `watch` is called about every
/// 100 ms on the calling thread.
fn drive<C, S: Script<C>>(
    connect: impl Fn() -> io::Result<C> + Sync,
    scripts: &mut [S],
    watch: &mut dyn FnMut(),
    window: usize,
    due_of: impl Fn(usize, usize) -> Option<f64> + Sync,
) -> Phase {
    let t0 = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .enumerate()
            .map(|(j, script)| {
                let (connect, due_of) = (&connect, &due_of);
                scope.spawn(move || run_one(connect, script, t0, window, |k| due_of(j, k)))
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            watch();
            std::thread::sleep(Duration::from_millis(100));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Phase {
        wall_s: t0.elapsed().as_secs_f64().min(
            per_conn
                .iter()
                .flatten()
                .map(|s| s.done)
                .fold(0.0, f64::max),
        ),
        samples: per_conn.into_iter().flatten().collect(),
    }
}

/// Runs every script on its own connection with up to `window`
/// requests in flight, sending the next request as soon as a response
/// arrives, for `secs` seconds.
pub fn closed_loop<C, S: Script<C>>(
    connect: impl Fn() -> io::Result<C> + Sync,
    scripts: &mut [S],
    window: usize,
    secs: f64,
    watch: &mut dyn FnMut(),
) -> Phase {
    let t0 = Instant::now();
    drive(connect, scripts, watch, window.max(1), move |_, _| {
        let now = t0.elapsed().as_secs_f64();
        (now < secs).then_some(now)
    })
}

/// Runs every script on its own connection on a fixed schedule: the
/// connections together send `rate` requests per second, evenly
/// staggered, for `secs` seconds, one request in flight per connection.
/// A connection still busy when its next request falls due sends it
/// late, and that request's latency counts from its due time.
pub fn open_loop<C, S: Script<C>>(
    connect: impl Fn() -> io::Result<C> + Sync,
    scripts: &mut [S],
    rate: f64,
    secs: f64,
    watch: &mut dyn FnMut(),
) -> Phase {
    let n = scripts.len().max(1) as f64;
    let interval = n / rate;
    drive(connect, scripts, watch, 1, move |j, k| {
        let due = (j as f64 / n + k as f64) * interval;
        (due < secs).then_some(due)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A script whose requests take a fixed time and carry one fix.
    struct Sleeper {
        ms: u64,
        fail_every: usize,
        n: usize,
    }

    impl Script<()> for Sleeper {
        fn send(&mut self, _: &mut ()) -> io::Result<()> {
            Ok(())
        }

        fn recv(&mut self, _: &mut ()) -> io::Result<Step> {
            std::thread::sleep(Duration::from_millis(self.ms));
            self.n += 1;
            Ok(Step {
                ok: self.fail_every == 0 || !self.n.is_multiple_of(self.fail_every),
                fixes: 1,
                class: REQUEST,
            })
        }
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // one connection, a request due every 10 ms, each taking 20 ms:
        // request k is due at 10k ms but cannot start before the previous
        // one ends at >= 20k ms, so its latency from due time is at least
        // 20(k+1) - 10k = 10k + 20 ms, and it is sent at least 10k ms late
        let mut scripts = [Sleeper {
            ms: 20,
            fail_every: 0,
            n: 0,
        }];
        let phase = open_loop(|| Ok(()), &mut scripts, 100.0, 0.2, &mut || ());
        assert_eq!(phase.samples.len(), 20);
        for (k, s) in phase.samples.iter().enumerate() {
            assert!((s.due - k as f64 * 0.01).abs() < 1e-9, "due time is fixed");
            assert!(
                s.latency_ms() >= 10.0 * k as f64 + 20.0 - 1e-6,
                "{k}: {s:?}"
            );
            assert!(s.lateness_ms() >= 10.0 * k as f64 - 1e-6, "{k}: {s:?}");
        }
        // the backlog shows in the lateness series: it only grows
        let late = phase.lateness_ms();
        assert!(late.last().unwrap() > &(late[0] + 150.0));
    }

    #[test]
    fn open_loop_with_spare_capacity_sends_on_time() {
        let mut scripts = [
            Sleeper {
                ms: 1,
                fail_every: 0,
                n: 0,
            },
            Sleeper {
                ms: 1,
                fail_every: 0,
                n: 0,
            },
        ];
        let phase = open_loop(|| Ok(()), &mut scripts, 100.0, 0.3, &mut || ());
        assert_eq!(phase.samples.len(), 30);
        // connections are staggered: their due times interleave
        let mut dues: Vec<f64> = phase.samples.iter().map(|s| s.due).collect();
        dues.sort_by(f64::total_cmp);
        for w in dues.windows(2) {
            assert!((w[1] - w[0] - 0.01).abs() < 1e-9);
        }
        // service time, not queueing, dominates each latency
        for s in &phase.samples {
            assert!(s.latency_ms() >= 1.0);
        }
    }

    #[test]
    fn failures_are_counted_and_miss_every_latency_limit() {
        let mut scripts = [Sleeper {
            ms: 1,
            fail_every: 4,
            n: 0,
        }];
        let phase = open_loop(|| Ok(()), &mut scripts, 1000.0, 0.1, &mut || ());
        let (attempted, failed) = phase.tally();
        assert_eq!(attempted, 100);
        assert_eq!(failed, 25);
        // a failure counts as infinitely slow: 25 of 100 are, so the p80
        // is infinite while the median is not
        assert_eq!(
            phase.chunk_percentiles(REQUEST, 100, 0.8),
            vec![f64::INFINITY]
        );
        assert!(phase.chunk_percentiles(REQUEST, 100, 0.5)[0].is_finite());
        // failed requests carry no fixes into the throughput
        assert_eq!(phase.service_ms(REQUEST).len(), 75);
        let fixes: f64 =
            phase.window_rates(phase.wall_s / 2.0).iter().sum::<f64>() * phase.wall_s / 2.0;
        assert!((fixes - 75.0).abs() < 1e-6, "{fixes}");
    }

    fn sample(due: f64, done: f64, ok: bool, fixes: u64) -> Sample {
        Sample {
            due,
            sent: due,
            done,
            step: Step {
                ok,
                fixes,
                class: REQUEST,
            },
        }
    }

    #[test]
    fn window_rates_and_chunk_percentiles() {
        let phase = Phase {
            wall_s: 2.5,
            samples: vec![
                sample(0.0, 0.5, true, 10),
                sample(0.1, 0.9, false, 99), // failed: no fixes
                sample(1.0, 1.2, true, 30),
                sample(1.9, 2.2, true, 40), // in the partial third slice
            ],
        };
        assert_eq!(phase.window_rates(1.0), vec![10.0, 30.0]);
        // 2000 requests in due order: the first 1000 take 1 ms, the next
        // 1000 take 5 ms except one failure; one p99 per chunk
        let mut samples: Vec<Sample> = (0..2000)
            .map(|i| {
                let due = i as f64 * 1e-3;
                let ms = if i < 1000 { 1.0 } else { 5.0 };
                sample(due, due + ms * 1e-3, i != 1500, 1)
            })
            .collect();
        samples.reverse(); // connections interleave; order by due time
        let phase = Phase {
            wall_s: 2.0,
            samples,
        };
        let p99 = phase.chunk_percentiles(REQUEST, 1000, 0.99);
        assert_eq!(p99.len(), 2);
        assert!(
            (p99[0] - 1.0).abs() < 1e-6 && (p99[1] - 5.0).abs() < 1e-6,
            "{p99:?}"
        );
        // a chunk of 999 cannot report a p99
        assert!(phase.chunk_percentiles(REQUEST, 1999, 0.99).len() == 1);
        assert!(phase.chunk_percentiles(REQUEST, 999, 0.99).is_empty());
    }

    #[test]
    fn broken_connections_fail_the_request_and_reconnect() {
        struct Broken;
        impl Script<()> for Broken {
            fn send(&mut self, _: &mut ()) -> io::Result<()> {
                Ok(())
            }

            fn recv(&mut self, _: &mut ()) -> io::Result<Step> {
                Err(io::Error::other("reset"))
            }
        }
        let connects = std::sync::atomic::AtomicUsize::new(0);
        let phase = open_loop(
            || {
                connects.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            },
            &mut [Broken],
            100.0,
            0.05,
            &mut || (),
        );
        assert_eq!(phase.tally(), (5, 5));
        assert_eq!(connects.into_inner(), 6);
        assert!(phase.service_ms(REQUEST).is_empty());
    }
}
