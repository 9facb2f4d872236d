//! `warehouse_milan`: the in-process library path of `semitri-cli
//! generate` and `olap` — batch annotation, durable ingest, replay, and a
//! closed-loop OLAP query mix over the compressed columns.

use crate::client::{cpu_s, status_mb};
use crate::report::Report;
use crate::{stats, Opts};
use semitri::prelude::*;
use semitri::store::{derive_tuple_layers, RowStore, SemanticTrajectoryStore};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Cars of `milan_cars`.
pub const CARS: usize = 100;
/// Days per car; the corpus is ingested day by day, so time windows
/// skip whole episode blocks.
pub const DAYS: usize = 28;
/// Ingest passes, each on a fresh log and spread over the run;
/// `fixes_per_s` and `cpu_us_per_fix` are their medians.
pub const INGEST_PASSES: usize = 3;
/// Time windows and rectangles the queries rotate through.
pub const WINDOWS: usize = 16;
/// Length of one time window, s.
pub const WINDOW_S: f64 = 3.0 * 3_600.0;
/// Side of one query rectangle, m.
pub const RECT_M: f64 = 1_000.0;

/// The pipeline configuration `semitri-cli` uses for vehicle presets.
pub fn vehicle_config() -> PipelineConfig {
    PipelineConfig {
        mode: ModeInferencer {
            allow_car: true,
            ..ModeInferencer::default()
        },
        policy: Box::new(VelocityPolicy::vehicles()),
        ..PipelineConfig::default()
    }
}

/// The generated inputs, ordered day by day (each day's cars in id
/// order), as a warehouse loads them.
pub fn feeds(seed: u64) -> (Dataset, Vec<GpsFeed>) {
    let mut dataset = milan_cars(CARS, DAYS, seed);
    let day = |t: &SimulatedTrack| (t.records[0].t.0 / 86_400.0).floor() as i64;
    dataset
        .tracks
        .sort_by(|a, b| day(a).cmp(&day(b)).then(a.object_id.cmp(&b.object_id)));
    let feeds = dataset
        .tracks
        .iter()
        .map(|t| GpsFeed::new(t.object_id, t.trajectory_id, t.records.clone()))
        .collect();
    (dataset, feeds)
}

/// A deterministic value in [0, 1) from `(seed, i)` (splitmix64).
pub fn unit(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

/// The query mix: the three aggregate scans, then eight time windows and
/// two rectangles, rotating through [`WINDOWS`] of each.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    /// `stops_per_landuse_hour`.
    LanduseHour,
    /// `mode_share_by_road_class`.
    ModeShare,
    /// `top_poi_visits(10)`.
    PoiRanks,
    /// `episodes_in_time` over window `i`.
    Time(usize),
    /// `episodes_in_rect` over rectangle `i`.
    Rect(usize),
}

/// Queries of round `r`.
pub fn round(r: usize) -> Vec<Query> {
    let mut q = vec![Query::LanduseHour, Query::ModeShare, Query::PoiRanks];
    q.extend((0..8).map(|i| Query::Time((r * 8 + i) % WINDOWS)));
    q.extend((0..2).map(|i| Query::Rect((r * 2 + i) % WINDOWS)));
    q
}

/// The windows queries rotate through, and the reference answers a row
/// walk over the same pipeline outputs gives.
pub struct Reference {
    /// Time windows.
    pub times: Vec<TimeSpan>,
    /// Spatial windows.
    pub rects: Vec<Rect>,
    landuse: semitri::store::LanduseHourCounts,
    modes: semitri::store::ModeShareByClass,
    pois: Vec<semitri::store::PoiVisit>,
    time_hits: Vec<Vec<(u64, u32)>>,
    rect_hits: Vec<Vec<(u64, u32)>>,
}

impl Reference {
    /// Builds the windows from the seed and answers every query by row
    /// walk ([`RowStore`]) and brute-force episode filters.
    pub fn new(seed: u64, city: &City, outputs: &[PipelineOutput]) -> Self {
        let mut rows = RowStore::new();
        for out in outputs {
            rows.insert(out.sst.clone(), derive_tuple_layers(out, &city.roads));
        }
        let t_min = outputs
            .iter()
            .map(|o| o.cleaned.records()[0].t.0)
            .fold(f64::INFINITY, f64::min);
        let t_max = outputs
            .iter()
            .map(|o| o.cleaned.records().last().map_or(0.0, |r| r.t.0))
            .fold(f64::NEG_INFINITY, f64::max);
        let b = city.bounds();
        let times: Vec<TimeSpan> = (0..WINDOWS as u64)
            .map(|i| {
                let start = t_min + unit(seed, i) * (t_max - t_min - WINDOW_S).max(0.0);
                TimeSpan::new(Timestamp(start), Timestamp(start + WINDOW_S))
            })
            .collect();
        let rects: Vec<Rect> = (0..WINDOWS as u64)
            .map(|i| {
                let x = b.min_x + unit(seed ^ 0x5eed, 2 * i) * (b.width() - RECT_M);
                let y = b.min_y + unit(seed ^ 0x5eed, 2 * i + 1) * (b.height() - RECT_M);
                Rect::new(x, y, x + RECT_M, y + RECT_M)
            })
            .collect();
        let episodes: Vec<(u64, u32, &Episode)> = outputs
            .iter()
            .flat_map(|o| {
                o.episodes
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (o.cleaned.trajectory_id, i as u32, e))
            })
            .collect();
        let hits = |pred: &dyn Fn(&Episode) -> bool| -> Vec<(u64, u32)> {
            let mut v: Vec<(u64, u32)> = episodes
                .iter()
                .filter(|(_, _, e)| pred(e))
                .map(|(t, i, _)| (*t, *i))
                .collect();
            v.sort_unstable();
            v
        };
        let time_hits = times
            .iter()
            .map(|w| hits(&|e| e.span.start.0 <= w.end.0 && w.start.0 <= e.span.end.0))
            .collect();
        let rect_hits = rects
            .iter()
            .map(|w| {
                hits(&|e| {
                    let r = &e.bbox;
                    r.min_x <= w.max_x
                        && w.min_x <= r.max_x
                        && r.min_y <= w.max_y
                        && w.min_y <= r.max_y
                        && r.min_x <= r.max_x
                        && r.min_y <= r.max_y
                })
            })
            .collect();
        Self {
            landuse: rows.stops_per_landuse_hour(),
            modes: rows.mode_share_by_road_class(),
            pois: rows.top_poi_visits(10),
            times,
            rects,
            time_hits,
            rect_hits,
        }
    }
}

/// Runs one query against the store, returning its latency (s), the
/// tuples or episodes it returned, and whether the answer matches the
/// reference.
pub fn query(
    store: &SemanticTrajectoryStore,
    reference: &Reference,
    q: Query,
    buf: &mut Vec<StoredEpisode>,
) -> (f64, usize, bool) {
    let ids = |buf: &[StoredEpisode]| {
        let mut v: Vec<(u64, u32)> = buf.iter().map(|e| (e.trajectory_id, e.index)).collect();
        v.sort_unstable();
        v
    };
    let t0 = Instant::now();
    match q {
        Query::LanduseHour => {
            let a = store.stops_per_landuse_hour();
            let t = t0.elapsed().as_secs_f64();
            (t, a.total() as usize, a == reference.landuse)
        }
        Query::ModeShare => {
            let a = store.mode_share_by_road_class();
            let t = t0.elapsed().as_secs_f64();
            (t, a.total() as usize, a == reference.modes)
        }
        Query::PoiRanks => {
            let a = store.top_poi_visits(10);
            let t = t0.elapsed().as_secs_f64();
            (t, a.len(), a == reference.pois)
        }
        Query::Time(i) => {
            store.episodes_in_time_with(reference.times[i], buf);
            let t = t0.elapsed().as_secs_f64();
            (t, buf.len(), ids(buf) == reference.time_hits[i])
        }
        Query::Rect(i) => {
            store.episodes_in_rect_with(&reference.rects[i], buf);
            let t = t0.elapsed().as_secs_f64();
            (t, buf.len(), ids(buf) == reference.rect_hits[i])
        }
    }
}

fn open(path: &Path) -> io::Result<SemanticTrajectoryStore> {
    SemanticTrajectoryStore::open_durable(path).map_err(|e| io::Error::other(e.to_string()))
}

/// The end-to-end run.
pub fn run(opts: &Opts, report: &mut Report) -> io::Result<()> {
    let (dataset, feeds) = feeds(opts.seed);
    let raws: Vec<RawTrajectory> = dataset.tracks.iter().map(|t| t.to_raw()).collect();
    let fixes: u64 = feeds.iter().map(|f| f.records.len() as u64).sum();
    println!(
        "corpus: {} car-days over {DAYS} days, {} fixes",
        raws.len(),
        fixes
    );

    // INGEST_PASSES rounds, so that a slow spell of the machine hits one
    // round rather than a whole metric: set-ups, an ingest pass on a
    // fresh log, a replay of that log, then a share of the OLAP loop
    let (mut setups, mut rates, mut cpu_per_fix, mut reopens) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut rss, mut utilization) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let mut expected = (0, 0, 0);
    let (mut stored_fixes, mut log_bytes) = (0u64, 0u64);
    let mut buf = Vec::new();
    let mut r = 0usize;
    for pass in 0..INGEST_PASSES {
        // set-up: build the pipeline and open an empty durable log
        let mut pipeline = None;
        for i in 0..crate::serve::SPAWNS / INGEST_PASSES {
            let path = opts.work.join(format!("setup-{pass}-{i}.stlog"));
            let t0 = Instant::now();
            let p = SeMiTri::new(&dataset.city, vehicle_config());
            let store = open(&path)?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(store);
            std::fs::remove_file(&path)?;
            pipeline = Some(p);
        }
        let pipeline = pipeline.expect("at least one set-up");

        // ingest: annotate on two threads, then store every output
        let path = opts.work.join(format!("ingest-{pass}.stlog"));
        let store = open(&path)?;
        let cpu0 = cpu_s("/proc/self/stat");
        let t0 = Instant::now();
        let batch = BatchAnnotator::new(&pipeline)
            .with_threads(2)
            .annotate_all(&raws);
        for out in batch.outputs() {
            if let Err(e) = store.put_annotated(out, &dataset.city.roads) {
                report
                    .tally
                    .check(false, || format!("put_annotated failed: {e}"));
            }
        }
        rates.push(fixes as f64 / t0.elapsed().as_secs_f64());
        let cpu = cpu_s("/proc/self/stat").zip(cpu0).map(|(b, a)| b - a);
        cpu_per_fix.extend(cpu.map(|c| c * 1e6 / fixes as f64));
        let errors = batch.errors().count() as u64;
        report
            .tally
            .add(raws.len() as u64, errors, "trajectory annotations");
        utilization.extend(batch.summary.worker_utilization());
        let counts = store.counts();
        drop(store);
        if reference.is_none() {
            // every pass annotates the same corpus into the same answers
            let outputs: Vec<PipelineOutput> =
                batch.results.into_iter().filter_map(Result::ok).collect();
            stored_fixes = outputs.iter().map(|o| o.cleaned.len() as u64).sum();
            let episodes: usize = outputs.iter().map(|o| o.episodes.len()).sum();
            expected = (outputs.len(), episodes, outputs.len());
            reference = Some(Reference::new(opts.seed, &dataset.city, &outputs));
        }
        report.tally.check(counts == expected, || {
            format!(
                "ingest stored {counts:?}, expected {expected:?} (trajectories, episodes, SSTs)"
            )
        });

        // replay the log
        let t0 = Instant::now();
        let store = open(&path)?;
        reopens.push(t0.elapsed().as_secs_f64());
        report.tally.check(store.counts() == counts, || {
            format!(
                "reopen holds {:?}, ingest stored {counts:?}",
                store.counts()
            )
        });
        log_bytes = std::fs::metadata(&path)?.len();

        // OLAP: closed loop, one thread, checked against the row walk
        let reference = reference.as_ref().expect("built on the first pass");
        let t_olap = Instant::now();
        while t_olap.elapsed().as_secs_f64() < opts.seconds * 0.5 / INGEST_PASSES as f64 {
            if r.is_multiple_of(50) {
                rss.extend(status_mb("/proc/self/status", "VmRSS:"));
            }
            for q in round(r) {
                let (secs, _, ok) = query(&store, reference, q, &mut buf);
                report
                    .tally
                    .check(ok, || format!("{q:?} differs from the row walk"));
                latencies.push(secs * 1e3);
            }
            r += 1;
        }
        drop(store);
        std::fs::remove_file(&path)?;
    }

    report.gate(
        "setup_s",
        stats::median(&setups).unwrap_or(0.0),
        "s",
        setups.len(),
    );
    report.gate_opt(
        "cpu_us_per_fix",
        stats::median(&cpu_per_fix),
        "us/fix",
        cpu_per_fix.len(),
    );
    report.gate_opt("rss_mb", stats::median(&rss), "MB", rss.len());
    // printed, not gated: wall-clock figures move with the host by more
    // than any usable bound (see serve.rs)
    report.info(
        "fixes_per_s",
        stats::median(&rates).unwrap_or(0.0),
        "fix/s",
        rates.len(),
    );
    let sorted = stats::sorted(&latencies);
    for (name, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
        match stats::tail(&sorted, q) {
            Some(v) => report.info(name, v, "ms", sorted.len()),
            None => report.require(false, || format!("{name}: too few OLAP queries")),
        }
    }
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.info(
        "olap_qps",
        latencies.len() as f64 / busy_s.max(1e-9),
        "query/s",
        latencies.len(),
    );
    report.info(
        "reopen_s",
        stats::median(&reopens).unwrap_or(0.0),
        "s",
        reopens.len(),
    );
    report.info(
        "log_bytes_per_fix",
        log_bytes as f64 / stored_fixes.max(1) as f64,
        "B/fix",
        stored_fixes as usize,
    );
    report.info(
        "batch_worker_utilization",
        stats::median(&utilization).unwrap_or(0.0),
        "ratio",
        utilization.len(),
    );
    Ok(())
}
