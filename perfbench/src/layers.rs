//! The traced run: every workload's inputs replayed in-process through
//! the public calls of each layer, in the order the server and the
//! pipeline make them, with a span around each call.
//!
//! Two request paths are replayed over the same feeds:
//! - the `/annotate` path: `http::read_request`, `wire::parse_feed`, the
//!   pipeline's layers one by one (`Preprocessor::run`, the segmentation
//!   policy, `RegionAnnotator::annotate_trajectory`,
//!   `GlobalMapMatcher::match_records_with`, `group_matches` +
//!   `ModeInferencer::annotate`, `PointAnnotator::annotate_stops`), then
//!   `try_annotate_feed` whole, `put_annotated`, `wire::encode_output`
//!   and `http::write_response`;
//! - the session path: 30-fix pushes through `http::read_request`,
//!   `wire::parse_records`, `SessionTable::push` over
//!   `LiveSeMiTri::streaming`, `wire::encode_events`, then a flush.
//!
//! Then the stored log is replayed, the OLAP mix runs over it, the feeds
//! go through `BatchAnnotator`, and map edits are published.

use crate::report::Report;
use crate::trace::{Totals, Tracer};
use crate::warehouse::{query, round, Query, Reference};
use crate::{stats, Opts};
use semitri::core::line::group_matches;
use semitri::prelude::*;
use semitri::server::sessions::{SessionLimits, SessionTable};
use semitri::server::{http, wire};
use semitri::store::SemanticTrajectoryStore;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::time::Instant;

/// Spans written out per request path; the metrics use every span.
const SPANS_WRITTEN: usize = 50_000;

/// A workload's inputs and the pipeline its surface runs.
pub struct Inputs {
    /// The city the feeds move in.
    pub city: City,
    /// The feeds, in workload order.
    pub feeds: Vec<GpsFeed>,
    /// The pipeline configuration of the surface.
    pub config: fn() -> PipelineConfig,
    /// The streaming segmentation policy of the surface.
    pub policy: VelocityPolicy,
    /// Whether the workload's own requests are session pushes (the
    /// http/wire metrics then come from the session path).
    pub sessions_primary: bool,
}

/// Counts gathered alongside the `/annotate` path spans.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    requests: u64,
    fixes: u64,
    kept: u64,
    move_fixes: u64,
    stops: u64,
    fallbacks: u64,
    log_bytes: u64,
}

fn request_bytes(path: &str, head: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{head}",
        head.len() + body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn read(tr: &mut Tracer, bytes: &[u8]) -> Result<http::Request, String> {
    let s = tr.open("http.read");
    let r = http::read_request(&mut BufReader::new(bytes), usize::MAX);
    tr.close(s);
    match r {
        Ok(http::NextRequest::Request(req)) => Ok(req),
        other => Err(format!("http::read_request: {other:?}")),
    }
}

fn write(tr: &mut Tracer, out: &mut Vec<u8>, body: &[u8]) {
    out.clear();
    let s = tr.open("http.write");
    let _ = http::write_response(out, 200, "application/json", body, true);
    tr.close(s);
}

/// One `/annotate` request through every layer. Returns the pipeline
/// output, or why the layer-by-layer path disagrees with
/// `try_annotate_feed`.
fn annotate_request(
    tr: &mut Tracer,
    pipe: &SeMiTri,
    store: &SemanticTrajectoryStore,
    bytes: &[u8],
    counts: &mut Counts,
    wbuf: &mut Vec<u8>,
    whole_first: bool,
) -> Result<PipelineOutput, String> {
    let root = tr.open("annotate");
    let req = read(tr, bytes)?;
    let s = tr.open("wire.parse");
    let feed = wire::parse_feed(std::str::from_utf8(&req.body).map_err(|e| e.to_string())?);
    tr.close(s);
    let feed = feed.map_err(|e| e.to_string())?;

    // the pipeline's layers one call at a time, and try_annotate_feed
    // whole; which runs first alternates, so neither always finds the
    // other's data in cache
    let mut layered = None;
    let mut whole = None;
    for pass in 0..2 {
        if (pass == 0) == whole_first {
            let s = tr.open("pipeline.annotate");
            let out = pipe.try_annotate_feed(&feed);
            tr.close(s);
            whole = Some(out.map_err(|e| e.to_string())?);
        } else {
            layered = Some(layer_by_layer(tr, pipe, &feed, counts)?);
        }
    }
    let (out, lay) = (whole.expect("ran"), layered.expect("ran"));
    if out.episodes.len() != lay.episodes
        || out.move_routes != lay.move_routes
        || out.stop_annotations.len() != lay.stops
        || out.cleaning != lay.cleaning
        || out.region_tuples.len() != lay.region_tuples
    {
        return Err(format!(
            "layer-by-layer path of trajectory {} disagrees with try_annotate_feed \
             (episodes {} vs {}, stops {} vs {})",
            feed.trajectory_id,
            lay.episodes,
            out.episodes.len(),
            lay.stops,
            out.stop_annotations.len()
        ));
    }

    let before = store.log_size().unwrap_or(0);
    let s = tr.open("store.put");
    let put = store.put_annotated(&out, &pipe.city().roads);
    tr.close(s);
    put.map_err(|e| e.to_string())?;
    counts.log_bytes += store.log_size().unwrap_or(0) - before;

    let s = tr.open("wire.encode");
    let body = wire::encode_output(&out);
    tr.close(s);
    write(tr, wbuf, body.as_bytes());
    tr.close(root);

    counts.requests += 1;
    counts.fixes += feed.records.len() as u64;
    counts.kept += out.cleaned.len() as u64;
    counts.stops += lay.stops as u64;
    Ok(out)
}

/// What the layer-by-layer calls produced, for comparison with
/// `try_annotate_feed`.
struct Layered {
    cleaning: CleaningReport,
    episodes: usize,
    region_tuples: usize,
    move_routes: Vec<(usize, Vec<semitri::core::line::RouteEntry>)>,
    stops: usize,
}

/// The pipeline's layers, one public call at a time, in the order
/// `try_annotate_feed` makes them.
fn layer_by_layer(
    tr: &mut Tracer,
    pipe: &SeMiTri,
    feed: &GpsFeed,
    counts: &mut Counts,
) -> Result<Layered, String> {
    let config = pipe.config();
    let layers = tr.open("pipeline.layers");
    let s = tr.open("preprocess");
    let pre = Preprocessor::new(config.clean).run(&feed.records);
    tr.close(s);
    let (records, cleaning) = pre.map_err(|e| e.to_string())?;
    let s = tr.open("episode");
    let cleaned = RawTrajectory::new(feed.object_id, feed.trajectory_id, records);
    let episodes = config.policy.segment(&cleaned);
    tr.close(s);
    let s = tr.open("region");
    let region_tuples = pipe.region_annotator().annotate_trajectory(&cleaned);
    tr.close(s);
    let mut scratch = MatchScratch::new();
    let mut move_routes = Vec::new();
    for (idx, ep) in episodes.iter().enumerate() {
        if ep.kind != EpisodeKind::Move {
            continue;
        }
        let slice = &cleaned.records()[ep.start..ep.end];
        counts.move_fixes += slice.len() as u64;
        let s = tr.open("line.match");
        let matches = pipe.matcher().match_records_with(&mut scratch, slice);
        tr.close(s);
        let s = tr.open("line.mode");
        let mut entries = group_matches(slice, &matches);
        config
            .mode
            .annotate(&pipe.city().roads, slice, &mut entries);
        tr.close(s);
        move_routes.push((idx, entries));
    }
    counts.fallbacks += scratch.take_kernel_fallbacks();
    let s = tr.open("point");
    let stops = match pipe.point_annotator() {
        Some(point) => {
            let centers: Vec<Point> = episodes
                .iter()
                .filter(|e| e.kind == EpisodeKind::Stop)
                .map(|e| e.center)
                .collect();
            point.annotate_stops(&centers).len()
        }
        None => 0,
    };
    tr.close(s);
    tr.close(layers);
    Ok(Layered {
        cleaning,
        episodes: episodes.len(),
        region_tuples: region_tuples.len(),
        move_routes,
        stops,
    })
}

fn per(total_ns: u64, n: u64, scale: f64) -> f64 {
    total_ns as f64 / scale / n.max(1) as f64
}

fn ns(t: &BTreeMap<&'static str, Totals>, name: &str) -> u64 {
    t.get(name).map_or(0, |t| t.total_ns)
}

/// The traced run.
pub fn run(opts: &Opts, report: &mut Report, inputs: Inputs) -> io::Result<()> {
    let Inputs {
        city,
        feeds,
        config,
        policy,
        sessions_primary,
    } = inputs;
    let t_run = Instant::now();
    let budget = |share: f64| t_run.elapsed().as_secs_f64() < opts.seconds * share;

    // set-up layers
    let mut builds = Vec::new();
    let mut pipe = None;
    for _ in 0..3 {
        drop(pipe.take());
        let t0 = Instant::now();
        let p = SeMiTri::new(&city, config());
        builds.push(t0.elapsed().as_secs_f64() * 1e3);
        pipe = Some(p);
    }
    let pipe = pipe.expect("built");
    let oracle_bytes = pipe.matcher().oracle().map_or(0, |o| o.arena_bytes())
        + pipe
            .point_annotator()
            .and_then(|p| p.observation_model().oracle())
            .map_or(0, |o| o.arena_bytes());

    // /annotate path, in rounds over every feed until its share of the
    // run is used; every round writes fresh logs
    let requests: Vec<Vec<u8>> = feeds
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let head = format!(
                "{{\"object_id\":{},\"trajectory_id\":{}}}\n",
                f.object_id,
                k + 1
            );
            request_bytes("/annotate", &head, &crate::taxi::render_fixes(&f.records))
        })
        .collect();
    let mut traced = Tracer::new();
    let mut untraced = Tracer::disabled();
    let mut counts = Counts::default();
    let mut shadow_counts = Counts::default();
    let mut outputs = Vec::new();
    let mut wbuf = Vec::new();
    let mut rounds = 0usize;
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let log0 = opts.work.join("trace-0.stlog");
    while rounds == 0 || budget(0.4) {
        let path = opts.work.join(format!("trace-{rounds}.stlog"));
        let shadow_path = opts.work.join(format!("untraced-{rounds}.stlog"));
        let store = open(&path)?;
        let shadow = open(&shadow_path)?;
        for (k, bytes) in requests.iter().enumerate() {
            traced.set_request((rounds * requests.len() + k) as u64);
            let whole_first = (k / 2) % 2 == 0;
            // each request runs traced and untraced back to back, in
            // alternating order; the difference is the tracing overhead
            for pass in 0..2 {
                let t0 = Instant::now();
                if (pass == 0) == (k % 2 == 0) {
                    let out = annotate_request(
                        &mut traced,
                        &pipe,
                        &store,
                        bytes,
                        &mut counts,
                        &mut wbuf,
                        whole_first,
                    );
                    traced_s += t0.elapsed().as_secs_f64();
                    match out {
                        Ok(out) if rounds == 0 => outputs.push(out),
                        Ok(_) => {}
                        Err(why) => {
                            report.tally.check(false, || why);
                        }
                    }
                } else {
                    let _ = annotate_request(
                        &mut untraced,
                        &pipe,
                        &shadow,
                        bytes,
                        &mut shadow_counts,
                        &mut wbuf,
                        whole_first,
                    );
                    untraced_s += t0.elapsed().as_secs_f64();
                }
            }
        }
        drop((store, shadow));
        std::fs::remove_file(&shadow_path)?;
        if rounds > 0 {
            std::fs::remove_file(&path)?;
        }
        rounds += 1;
    }
    report
        .tally
        .add(counts.requests, 0, "layer-by-layer annotations");

    // session path over the same feeds, through a live pipeline as the
    // server runs it
    let live = LiveSeMiTri::new(city.clone(), config, None);
    let mut sess = Tracer::new();
    let mut pushed = 0u64;
    let mut events = 0u64;
    let mut session_rounds = 0usize;
    while session_rounds == 0 || budget(0.6) {
        let table = SessionTable::new(SessionLimits::default());
        for (k, f) in feeds.iter().enumerate() {
            let user = format!("r{session_rounds}-u{k}");
            sess.set_request(k as u64);
            for chunk in f.records.chunks(crate::phones::PUSH_FIXES) {
                let bytes = request_bytes(
                    &format!("/session/{user}/push"),
                    "",
                    &crate::taxi::render_fixes(chunk),
                );
                let root = sess.open("push");
                let req = read(&mut sess, &bytes).map_err(io::Error::other)?;
                let s = sess.open("wire.parse");
                let recs = wire::parse_records(std::str::from_utf8(&req.body).unwrap_or(""));
                sess.close(s);
                let recs = recs.map_err(|e| io::Error::other(e.to_string()))?;
                let s = sess.open("sessions.push");
                let result = table.push(&user, &recs, || live.streaming(policy));
                sess.close(s);
                let result = result.map_err(|e| io::Error::other(format!("{e:?}")))?;
                let s = sess.open("wire.encode");
                let body = wire::encode_events(&result.events);
                sess.close(s);
                write(&mut sess, &mut wbuf, body.as_bytes());
                sess.close(root);
                pushed += recs.len() as u64;
                events += result.events.len() as u64;
            }
            let root = sess.open("flush");
            let s = sess.open("sessions.flush");
            let flushed = table.flush(&user);
            sess.close(s);
            sess.close(root);
            match flushed {
                Some(f) => events += f.events.len() as u64,
                None => {
                    report.tally.check(false, || {
                        format!("session {user} vanished before its flush")
                    });
                }
            }
        }
        session_rounds += 1;
    }

    // replay the first round's log, then the OLAP mix over it
    let mut replays = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        drop(store.take());
        let t0 = Instant::now();
        let s = open(&log0)?;
        replays.push(t0.elapsed().as_secs_f64() * 1e3);
        store = Some(s);
    }
    let store = store.expect("replayed");
    let reference = Reference::new(opts.seed, &city, &outputs);
    let live_tuples = store.metrics().live_tuples.max(1);
    let mut olap: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut buf = Vec::new();
    let mut r = 0usize;
    while r < 20 || budget(0.75) {
        for q in round(r) {
            let (secs, _, ok) = query(&store, &reference, q, &mut buf);
            report
                .tally
                .check(ok, || format!("{q:?} differs from the row walk"));
            let name = match q {
                Query::LanduseHour => "landuse_hour",
                Query::ModeShare => "mode_share",
                Query::PoiRanks => "poi_ranks",
                Query::Time(_) => "time_window",
                Query::Rect(_) => "rect",
            };
            olap.entry(name).or_default().push(secs);
        }
        r += 1;
    }
    let skip_rate = store.metrics().block_skip_rate();
    drop(store);

    // batch pool and publishes
    let raws: Vec<GpsFeed> = feeds.clone();
    let batch = BatchAnnotator::new(&pipe)
        .with_threads(2)
        .annotate_feeds(&raws);
    let utilization = batch.summary.worker_utilization();
    let (corner, _) = crate::phones::far_corner(&city.bounds(), &feeds);
    let mut publishes = Vec::new();
    for n in 0..3 {
        let body = crate::phones::publish_body(&city.bounds(), corner, n);
        let mutations =
            wire::parse_mutations(&body).map_err(|e| io::Error::other(e.to_string()))?;
        let t0 = Instant::now();
        for m in mutations {
            live.submit(m).map_err(io::Error::other)?;
        }
        let outcome = live.publish();
        publishes.push(t0.elapsed().as_secs_f64() * 1e3);
        report
            .tally
            .check(outcome.applied == 1, || "publish applied no edit".into());
    }

    // write the spans out
    let trace_dir = std::path::Path::new(".perfbench").join("traces");
    std::fs::create_dir_all(&trace_dir)?;
    for (path, tracer) in [("annotate", &traced), ("sessions", &sess)] {
        let file = trace_dir.join(format!("{}-seed{}-{path}.jsonl", opts.workload, opts.seed));
        let mut out = io::BufWriter::new(std::fs::File::create(&file)?);
        tracer.write_jsonl(&mut out, SPANS_WRITTEN)?;
        out.flush()?;
        println!(
            "trace: the first {} of {} {path} spans written to {}",
            tracer.spans().len().min(SPANS_WRITTEN),
            tracer.spans().len(),
            file.display()
        );
    }

    // per-layer metrics
    let a = traced.totals();
    let s = sess.totals();
    let c = counts;
    let (http_src, http_n) = if sessions_primary {
        (&s, s.get("http.read").map_or(1, |t| t.count))
    } else {
        (&a, c.requests)
    };
    report.gate(
        "http.read_us_per_req",
        per(ns(http_src, "http.read"), http_n, 1e3),
        "us/req",
        http_n as usize,
    );
    report.gate(
        "http.write_us_per_req",
        per(ns(http_src, "http.write"), http_n, 1e3),
        "us/req",
        http_n as usize,
    );
    let (wire_src, wire_fixes) = if sessions_primary {
        (&s, pushed)
    } else {
        (&a, c.fixes)
    };
    report.gate(
        "wire.parse_ns_per_fix",
        per(ns(wire_src, "wire.parse"), wire_fixes, 1.0),
        "ns/fix",
        wire_fixes as usize,
    );
    report.gate(
        "wire.encode_ns_per_fix",
        per(ns(wire_src, "wire.encode"), wire_fixes, 1.0),
        "ns/fix",
        wire_fixes as usize,
    );
    report.gate(
        "preprocess.ns_per_fix",
        per(ns(&a, "preprocess"), c.fixes, 1.0),
        "ns/fix",
        c.fixes as usize,
    );
    report.gate(
        "preprocess.kept_frac",
        c.kept as f64 / c.fixes.max(1) as f64,
        "ratio",
        c.fixes as usize,
    );
    report.gate(
        "episode.ns_per_fix",
        per(ns(&a, "episode"), c.kept, 1.0),
        "ns/fix",
        c.kept as usize,
    );
    report.gate(
        "region.ns_per_fix",
        per(ns(&a, "region"), c.kept, 1.0),
        "ns/fix",
        c.kept as usize,
    );
    report.gate(
        "line.match_ns_per_move_fix",
        per(ns(&a, "line.match"), c.move_fixes, 1.0),
        "ns/fix",
        c.move_fixes as usize,
    );
    report.gate(
        "line.mode_ns_per_move_fix",
        per(ns(&a, "line.mode"), c.move_fixes, 1.0),
        "ns/fix",
        c.move_fixes as usize,
    );
    report.gate(
        "line.kernel_fallbacks_per_move_fix",
        c.fallbacks as f64 / c.move_fixes.max(1) as f64,
        "1/fix",
        c.move_fixes as usize,
    );
    report.gate(
        "point.us_per_stop",
        per(ns(&a, "point"), c.stops, 1e3),
        "us/stop",
        c.stops as usize,
    );
    let whole = ns(&a, "pipeline.annotate");
    let layer_sum: u64 = [
        "preprocess",
        "episode",
        "region",
        "line.match",
        "line.mode",
        "point",
    ]
    .iter()
    .map(|n| ns(&a, n))
    .sum();
    let residual = whole as f64 - layer_sum as f64;
    report.gate(
        "pipeline.annotate_ns_per_fix",
        per(whole, c.fixes, 1.0),
        "ns/fix",
        c.fixes as usize,
    );
    report.gate(
        "pipeline.residual_ns_per_fix",
        residual / c.fixes.max(1) as f64,
        "ns/fix",
        c.fixes as usize,
    );
    report.gate(
        "sessions.push_ns_per_fix",
        per(ns(&s, "sessions.push"), pushed, 1.0),
        "ns/fix",
        pushed as usize,
    );
    let flushes = s.get("sessions.flush").map_or(0, |t| t.count);
    report.gate(
        "sessions.flush_us",
        per(ns(&s, "sessions.flush"), flushes, 1e3),
        "us",
        flushes as usize,
    );
    report.gate(
        "sessions.events_per_fix",
        events as f64 / pushed.max(1) as f64,
        "1/fix",
        pushed as usize,
    );
    report.gate(
        "live.publish_ms",
        stats::median(&publishes).unwrap_or(0.0),
        "ms",
        publishes.len(),
    );
    report.gate(
        "pipeline.build_ms",
        stats::median(&builds).unwrap_or(0.0),
        "ms",
        builds.len(),
    );
    report.gate("index.oracle_bytes", oracle_bytes as f64, "B", 1);
    report.gate(
        "store.put_us_per_traj",
        per(ns(&a, "store.put"), c.requests, 1e3),
        "us/traj",
        c.requests as usize,
    );
    report.gate(
        "store.bytes_appended_per_fix",
        c.log_bytes as f64 / c.kept.max(1) as f64,
        "B/fix",
        c.kept as usize,
    );
    report.gate(
        "store.replay_ms",
        stats::median(&replays).unwrap_or(0.0),
        "ms",
        replays.len(),
    );
    for (name, key) in [
        ("olap.landuse_hour_ns_per_tuple", "landuse_hour"),
        ("olap.mode_share_ns_per_tuple", "mode_share"),
        ("olap.poi_ranks_ns_per_tuple", "poi_ranks"),
    ] {
        let v = olap.get(key).map_or(&[][..], |v| v.as_slice());
        report.gate(
            name,
            stats::median(v).unwrap_or(0.0) * 1e9 / live_tuples as f64,
            "ns/tuple",
            v.len(),
        );
    }
    for (name, key) in [
        ("olap.time_window_us", "time_window"),
        ("olap.rect_us", "rect"),
    ] {
        let v = olap.get(key).map_or(&[][..], |v| v.as_slice());
        report.gate(name, stats::median(v).unwrap_or(0.0) * 1e6, "us", v.len());
    }
    report.gate("store.block_skip_rate", skip_rate, "ratio", 1);
    report.gate(
        "batch.worker_utilization",
        utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
        "ratio",
        utilization.len(),
    );

    // the /annotate request split: the server's request is read, parse,
    // try_annotate_feed, store, encode and write; the layer-by-layer calls
    // split try_annotate_feed, and what they leave is SST assembly
    let request = [
        "http.read",
        "wire.parse",
        "pipeline.annotate",
        "store.put",
        "wire.encode",
        "http.write",
    ]
    .iter()
    .map(|n| ns(&a, n))
    .sum::<u64>()
    .max(1) as f64;
    let shares = [
        (
            "share.http",
            (ns(&a, "http.read") + ns(&a, "http.write")) as f64,
        ),
        (
            "share.wire",
            (ns(&a, "wire.parse") + ns(&a, "wire.encode")) as f64,
        ),
        ("share.preprocess", ns(&a, "preprocess") as f64),
        ("share.episode", ns(&a, "episode") as f64),
        ("share.region", ns(&a, "region") as f64),
        (
            "share.line",
            (ns(&a, "line.match") + ns(&a, "line.mode")) as f64,
        ),
        ("share.point", ns(&a, "point") as f64),
        ("share.pipeline_residual", residual),
        ("share.store", ns(&a, "store.put") as f64),
    ];
    for (name, v) in shares {
        report.gate(name, v / request, "ratio", c.requests as usize);
    }
    report.gate(
        "trace.overhead_ns_per_fix",
        (traced_s - untraced_s) * 1e9 / c.fixes.max(1) as f64,
        "ns/fix",
        c.fixes as usize,
    );
    println!(
        "trace: {rounds} round(s) of {} /annotate requests ({:.3} s traced, {:.3} s untraced), \
         {session_rounds} round(s) of sessions, {r} OLAP round(s)",
        requests.len(),
        traced_s,
        untraced_s
    );
    Ok(())
}

fn open(path: &std::path::Path) -> io::Result<SemanticTrajectoryStore> {
    SemanticTrajectoryStore::open_durable(path).map_err(|e| io::Error::other(e.to_string()))
}
