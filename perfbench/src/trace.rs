//! The traced run (`--trace 1`): the same generated inputs replayed
//! in-process through each layer's public functions, every call timed
//! by a span recorded here, in the benchmark, around the call. Counters
//! the program already exports (`culinaria-obs` snapshots, cache
//! stats) are folded in. Spans carry an id and a parent, stay in
//! memory, and are written out at exit with their self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use culinaria::analysis::z_analysis::analyze_world_observed;
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::{AlignedBytes, FlavorArtifactBuilder};
use culinaria::obs::Metrics;
use culinaria::recipedb::{
    FsyncPolicy, Importer, RecipeArtifactBuilder, RecipeStore, SegmentedLog,
};
use culinaria::serve::protocol::parse_request;
use culinaria::serve::{Request, ServeConfig, Server};

use crate::child::{self, Daemon};
use crate::inputs::ServeWorld;
use crate::load;
use crate::stats::median;
use crate::workloads::{self, Dataset, ServePlan};
use crate::{Opts, Report};

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder for one thread. Disabled, it runs the
/// closures and records nothing (the tracing-off side of the overhead
/// measurement).
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(SpanRec {
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time of each span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]))
            .collect()
    }

    /// Per span name: (calls, total ms, self ms).
    pub fn summary(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.borrow().iter().zip(selfs) {
            let e = out.entry(s.name.to_owned()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line (id, parent, name, start, end,
    /// self time; nanoseconds since the tracer started).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let selfs = self.self_ns();
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.borrow().iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("datagen.generate_world_s", "s", "wall_s on fig4-paper"),
    (
        "core.overlap_build_ms",
        "ms",
        "wall_s on fig4-paper; setup_s on serve-*",
    ),
    (
        "core.overlap_cells",
        "count",
        "wall_s on fig4-paper; setup_s on serve-*",
    ),
    (
        "core.mc_s",
        "s",
        "wall_s on fig4-paper; setup_s on serve-* (first ZPROF)",
    ),
    (
        "core.mc_recipes_per_s",
        "1/s",
        "wall_s on fig4-paper; setup_s on serve-* (first ZPROF)",
    ),
    (
        "core.z_ms",
        "ms",
        "wall_s on fig4-paper; setup_s on serve-* (first ZPROF)",
    ),
    ("stats.pool_busy_frac", "ratio", "wall_s on fig4-paper"),
    ("flavordb.read_file_ms", "ms", "setup_s on serve-*"),
    ("flavordb.open_ms", "ms", "setup_s on serve-*"),
    ("recipedb.read_file_ms", "ms", "setup_s on serve-*"),
    ("recipedb.open_ms", "ms", "setup_s on serve-*"),
    ("serve.ready_ms", "ms", "setup_s on serve-*"),
    ("serve.first_touch_ms.zprof", "ms", "setup_s on serve-*"),
    ("serve.first_touch_ms.topk", "ms", "setup_s on serve-*"),
    ("serve.parse_us", "us", "p50_ms/p99_ms on serve-hot"),
    ("serve.handle_hit_us", "us", "p50_ms/p99_ms on serve-hot"),
    (
        "serve.handle_miss_us.pair",
        "us",
        "p50_ms/p99_ms/max_rps on serve-cold",
    ),
    (
        "serve.handle_miss_us.topk",
        "us",
        "p50_ms/p99_ms/max_rps on serve-cold",
    ),
    (
        "serve.handle_miss_us.zprof",
        "us",
        "p50_ms/p99_ms/max_rps on serve-cold",
    ),
    (
        "serve.handle_miss_us.score",
        "us",
        "p50_ms/p99_ms/max_rps on serve-cold",
    ),
    (
        "serve.cache_hit_ratio",
        "ratio",
        "p50_ms on serve-hot; p99_ms on serve-cold",
    ),
    (
        "serve.cache_evictions",
        "count",
        "p50_ms on serve-hot; p99_ms on serve-cold",
    ),
    (
        "serve.batch_mean",
        "count",
        "max_rps on serve-cold (fail_frac)",
    ),
    ("serve.busy", "count", "max_rps on serve-cold (fail_frac)"),
    (
        "serve.queue_depth_max",
        "count",
        "max_rps on serve-cold (fail_frac)",
    ),
    ("serve.drain_ms", "ms", "none yet (reported only)"),
    (
        "text.resolve_us_per_line",
        "us",
        "wall_s/records_per_s on ingest-append; p50_ms on serve-cold (SCORE)",
    ),
    (
        "text.resolved_ratio",
        "ratio",
        "wall_s/records_per_s on ingest-append; p50_ms on serve-cold (SCORE)",
    ),
    (
        "recipedb.import_ms",
        "ms",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "recipedb.wal_open_ms",
        "ms",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "recipedb.wal_replay_ms",
        "ms",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "recipedb.wal_append_ms",
        "ms",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "recipedb.wal_sync_ms",
        "ms",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "recipedb.wal_bytes_per_record",
        "B",
        "wall_s/records_per_s on ingest-append",
    ),
    (
        "cli.ingest_call_ms",
        "ms",
        "setup_s/wall_s on ingest-append",
    ),
    ("trace.overhead_ns_per_span", "ns", "none (tracing cost)"),
];

/// Run `f` `reps` times under spans named `name`; the median in ms.
fn timed_median<T>(t: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..reps {
        std::hint::black_box(t.span(name, &mut f));
    }
    median(&t.durations_ms(name))
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn endpoint(req: &Request) -> &'static str {
    match req {
        Request::Pair { .. } => "pair",
        Request::TopK { .. } => "topk",
        Request::ZProf { .. } => "zprof",
        Request::Score { .. } => "score",
        _ => "other",
    }
}

/// Replay requests one `handle_batch` call each, classified as a hit
/// or a per-endpoint miss by the cache counters around the call.
/// Returns (class, µs) per call and the ERR count.
fn replay_requests(
    t: &Tracer,
    server: &Server<'_>,
    reqs: &[(u64, Request)],
) -> (Vec<(&'static str, f64)>, usize) {
    let mut calls = Vec::with_capacity(reqs.len());
    let mut errs = 0;
    for pair in reqs {
        let before = server.cache_stats().map_or(0, |s| s.hits);
        let (reply, us) = t.span("serve.handle_batch", || {
            let start = Instant::now();
            let reply = server.handle_batch(std::slice::from_ref(pair));
            (reply, start.elapsed().as_secs_f64() * 1e6)
        });
        let hit = server.cache_stats().map_or(0, |s| s.hits) > before;
        calls.push((if hit { "hit" } else { endpoint(&pair.1) }, us));
        if reply.first().is_some_and(|r| r.contains(" ERR ")) {
            errs += 1;
        }
    }
    (calls, errs)
}

/// Median µs of the calls of one class.
fn class_median(calls: &[(&str, f64)], class: &str) -> f64 {
    let us: Vec<f64> = calls
        .iter()
        .filter(|(c, _)| *c == class)
        .map(|(_, us)| *us)
        .collect();
    median(&us)
}

fn parse_all(bodies: &[String]) -> Vec<(u64, Request)> {
    bodies
        .iter()
        .enumerate()
        .filter_map(|(i, b)| parse_request(format!("{i} {b}").as_bytes()).ok())
        .collect()
}

/// The traced run. It covers every layer whichever workload is named,
/// so each traced run prints every per-layer metric.
pub fn traced(workload: &str, o: &Opts, out_dir: &Path) -> io::Result<Report> {
    let mut r = Report::new();
    let t = Tracer::new(true);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // datagen + core + stats: the fig4-paper pipeline.
    let world = t.span("datagen.generate_world", || workloads::world(o));
    m.insert(
        "datagen.generate_world_s",
        t.durations_ms("datagen.generate_world")[0] / 1e3,
    );
    let metrics = Metrics::enabled();
    let mc = MonteCarloConfig {
        n_recipes: o.mc,
        seed: o.seed,
        n_threads: 0,
    };
    t.span("core.analyze_world", || {
        analyze_world_observed(
            &world.flavor,
            &world.recipes,
            &NullModel::ALL,
            &mc,
            &metrics,
        )
    });
    r.attempted += 1;
    let snap = metrics.snapshot();
    let span_ms = |name: &str| {
        snap.span(name)
            .map_or(f64::NAN, |s| s.total_ns as f64 / 1e6)
    };
    m.insert("core.overlap_build_ms", span_ms("overlap.build"));
    m.insert(
        "core.overlap_cells",
        snap.counter("overlap.cells").unwrap_or(0) as f64,
    );
    let mc_ms = span_ms("world.mc");
    m.insert("core.mc_s", mc_ms / 1e3);
    m.insert(
        "core.mc_recipes_per_s",
        snap.counter("mc.recipes").unwrap_or(0) as f64 / (mc_ms / 1e3),
    );
    m.insert("core.z_ms", span_ms("world.merge"));
    let busy_ms = snap
        .histogram("pool.worker.busy_us")
        .map_or(0.0, |h| h.sum_us as f64 / 1e3);
    let workers = snap.gauge("pool.workers").unwrap_or(1).max(1) as f64;
    m.insert(
        "stats.pool_busy_frac",
        busy_ms / (workers * (span_ms("world.prepare") + mc_ms)),
    );

    // flavordb / recipedb artifacts, written as `culinaria generate`
    // writes them.
    std::fs::create_dir_all("data")?;
    let (fbytes, rbytes) = t.span("artifacts.build", || {
        (
            FlavorArtifactBuilder::new(&world.flavor).build(),
            RecipeArtifactBuilder::new(&world.recipes).build(),
        )
    });
    std::fs::write("data/flavor.cfdb2", fbytes.map_err(io_err)?)?;
    std::fs::write("data/recipes.crdb2", rbytes.map_err(io_err)?)?;
    let fpath = Path::new("data/flavor.cfdb2");
    let rpath = Path::new("data/recipes.crdb2");
    m.insert(
        "flavordb.read_file_ms",
        timed_median(&t, "flavordb.read_file", 5, || {
            AlignedBytes::read_file(fpath)
        }),
    );
    m.insert(
        "recipedb.read_file_ms",
        timed_median(&t, "recipedb.read_file", 5, || {
            AlignedBytes::read_file(rpath)
        }),
    );
    let data = Dataset::read(Path::new("data"))?;
    m.insert(
        "flavordb.open_ms",
        timed_median(&t, "flavordb.open", 5, || {
            culinaria::flavordb::artifact::open(data.flavor.as_slice()).is_ok()
        }),
    );
    m.insert(
        "recipedb.open_ms",
        timed_median(&t, "recipedb.open", 5, || {
            culinaria::recipedb::artifact::open(data.recipes.as_slice()).is_ok()
        }),
    );

    // serve, in-process over the same artifacts and the CLI's config.
    let hot_plan = ServePlan::for_workload(false);
    let cold_plan = ServePlan::for_workload(true);
    let n_hot = (hot_plan.rate * o.seconds * 0.4).ceil() as usize;
    let n_cold = (cold_plan.rate * o.seconds * 0.4).ceil() as usize;
    let serve_errs = data.with_views(|flavor, recipes| -> io::Result<usize> {
        let world = ServeWorld::from_views(flavor, recipes);
        let hot = world.hot_requests(o.seed).take(n_hot);
        let cold = world.cold_requests(o.seed).take(n_cold);
        let mut bodies: Vec<&String> = hot.iter().chain(&cold).collect();
        bodies.sort_unstable();
        bodies.dedup();
        let payloads: Vec<String> = bodies.iter().map(|b| format!("1 {b}")).collect();
        t.span("serve.parse", || {
            for p in &payloads {
                std::hint::black_box(parse_request(p.as_bytes()).is_ok());
            }
        });
        m.insert(
            "serve.parse_us",
            t.durations_ms("serve.parse")[0] * 1e3 / payloads.len() as f64,
        );

        let server = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
        let warm = parse_all(&world.warmup());
        let mut errs = 0;
        t.span("serve.warmup", || {
            for pair in &warm {
                let name = match pair.1 {
                    Request::ZProf { .. } => "serve.first_touch.zprof",
                    _ => "serve.first_touch.topk",
                };
                let reply = t.span(name, || server.handle_batch(std::slice::from_ref(pair)));
                errs += reply.iter().filter(|x| x.contains(" ERR ")).count();
            }
        });
        let sum = |name: &str| t.durations_ms(name).iter().sum::<f64>();
        m.insert("serve.first_touch_ms.zprof", sum("serve.first_touch.zprof"));
        m.insert("serve.first_touch_ms.topk", sum("serve.first_touch.topk"));
        m.insert(
            "serve.handle_miss_us.zprof",
            median(&t.durations_ms("serve.first_touch.zprof")) * 1e3,
        );

        let hot_reqs = parse_all(&hot);
        let stats0 = server.cache_stats().unwrap_or_default();
        let (hot_calls, e) = t.span("serve.hot", || replay_requests(&t, &server, &hot_reqs));
        errs += e;
        let stats1 = server.cache_stats().unwrap_or_default();
        let lookups = (stats1.hits + stats1.misses) - (stats0.hits + stats0.misses);
        m.insert(
            "serve.cache_hit_ratio",
            (stats1.hits - stats0.hits) as f64 / lookups.max(1) as f64,
        );
        m.insert("serve.handle_hit_us", class_median(&hot_calls, "hit"));

        let cold_reqs = parse_all(&cold);
        let (cold_calls, e) = t.span("serve.cold", || replay_requests(&t, &server, &cold_reqs));
        errs += e;
        let stats2 = server.cache_stats().unwrap_or_default();
        m.insert(
            "serve.cache_evictions",
            (stats2.evictions - stats1.evictions) as f64,
        );
        m.insert(
            "serve.handle_miss_us.pair",
            class_median(&cold_calls, "pair"),
        );
        m.insert(
            "serve.handle_miss_us.topk",
            class_median(&cold_calls, "topk"),
        );
        m.insert(
            "serve.handle_miss_us.score",
            class_median(&cold_calls, "score"),
        );

        // Tracing overhead: the hot replay again on a warmed server,
        // spans off and on in alternation, one span per request.
        let server = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
        replay_requests(&Tracer::new(false), &server, &warm);
        replay_requests(&Tracer::new(false), &server, &hot_reqs);
        let replay_s = |enabled: bool| {
            let start = Instant::now();
            replay_requests(&Tracer::new(enabled), &server, &hot_reqs);
            start.elapsed().as_secs_f64()
        };
        let (mut offs, mut ons) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            offs.push(replay_s(false));
            ons.push(replay_s(true));
        }
        let (off, on) = (median(&offs), median(&ons));
        m.insert(
            "trace.overhead_ns_per_span",
            (on - off) * 1e9 / hot_reqs.len() as f64,
        );
        r.note(format!(
            "tracing overhead: hot replay {:.2} ms spans off, {:.2} ms spans on ({:+.2}%)",
            off * 1e3,
            on * 1e3,
            (on / off - 1.0) * 100.0
        ));

        // Batching and shedding: a cold stream over one in-process
        // connection, open loop for one second at four times the rate
        // where serve-cold's ladder starts (past its knee).
        let server = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
        for pair in &warm {
            server.handle_batch(std::slice::from_ref(pair));
        }
        let over_rps = cold_plan.ladder_from * 4.0;
        let over = world
            .cold_requests(o.seed ^ 0x0e7)
            .take((over_rps * o.seconds / 10.0) as usize);
        let depth = server.metrics().gauge("serve.queue.depth");
        let (ours, theirs) = UnixStream::pair()?;
        let done = AtomicBool::new(false);
        let (run, depth_max) = t.span("serve.overload", || {
            std::thread::scope(|scope| -> io::Result<(load::Run, i64)> {
                let reader = theirs.try_clone()?;
                let server = &server;
                let srv = scope.spawn(move || server.serve_connection(reader, theirs));
                let sampler = scope.spawn(|| {
                    let mut max = 0;
                    while !done.load(Ordering::Relaxed) {
                        max = max.max(depth.get());
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    max
                });
                let run = load::open_loop(&ours, &over, over_rps);
                done.store(true, Ordering::Relaxed);
                ours.shutdown(std::net::Shutdown::Both)?;
                let max = sampler.join().map_err(|_| io_err("sampler panicked"))?;
                srv.join().map_err(|_| io_err("server thread panicked"))??;
                Ok((run?, max))
            })
        })?;
        r.attempted += run.replies.len() as u64;
        let snap = server.metrics().snapshot();
        let batch = snap.histogram("serve.batch");
        m.insert(
            "serve.batch_mean",
            batch.map_or(f64::NAN, |h| h.sum_us as f64 / h.count.max(1) as f64),
        );
        m.insert("serve.busy", snap.counter("serve.busy").unwrap_or(0) as f64);
        m.insert("serve.queue_depth_max", depth_max as f64);
        r.attempted += (warm.len() + hot_reqs.len() + cold_reqs.len()) as u64;
        Ok(errs)
    })??;
    if serve_errs > 0 {
        r.failed += serve_errs as u64;
        r.correct = false;
        r.note(format!(
            "CHECK FAILED: {serve_errs} ERR replies in the serve replay"
        ));
    }

    // The real accept loop: exec → first PING, SIGTERM → exit.
    let mut ready = Vec::new();
    let mut drain = Vec::new();
    for _ in 0..5 {
        let s = t.span("serve.process", || -> io::Result<(f64, f64, bool)> {
            let daemon = Daemon::spawn(&o.bin, &workloads::SERVE_ARGS, Path::new("serve.log"))?;
            let stream = load::connect(workloads::SERVE_ARGS[2], Duration::from_secs(60))?;
            load::call_all(&stream, &["PING".to_owned()])?;
            let ready = daemon.started.elapsed().as_secs_f64() * 1e3;
            drop(stream);
            let exit = daemon.terminate()?;
            Ok((ready, exit.wall.as_secs_f64() * 1e3, exit.ok()))
        })?;
        r.attempted += 1;
        if !s.2 {
            r.failed += 1;
            r.correct = false;
            r.note("CHECK FAILED: serve did not exit 0 on SIGTERM");
        }
        ready.push(s.0);
        drain.push(s.1);
    }
    r.note(format!("serve.ready_ms samples: {ready:.1?}"));
    r.note(format!("serve.drain_ms samples: {drain:.1?}"));
    m.insert("serve.ready_ms", median(&ready));
    m.insert("serve.drain_ms", median(&drain));

    // text + recipedb: the ingest-append corpus.
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let batches = workloads::ingest_corpus(o);
    let lines: Vec<&String> = batches
        .iter()
        .flatten()
        .flat_map(|r| &r.ingredient_lines)
        .collect();
    let resolved = t.span("text.resolve", || {
        lines
            .iter()
            .filter(|l| !importer.resolve_line(&db, l).0.is_empty())
            .count()
    });
    m.insert(
        "text.resolve_us_per_line",
        t.durations_ms("text.resolve")[0] * 1e3 / lines.len() as f64,
    );
    m.insert("text.resolved_ratio", resolved as f64 / lines.len() as f64);
    let all = batches.concat();
    let cold = t.span("recipedb.import", || {
        importer.import_batch(&db, &mut RecipeStore::new(), &all, 0)
    });
    let cold = cold.map_err(io_err)?;
    m.insert("recipedb.import_ms", t.durations_ms("recipedb.import")[0]);

    let wal_dir = Path::new("wal-trace");
    let mut log = t
        .span("recipedb.wal_open", || {
            SegmentedLog::open(wal_dir, FsyncPolicy::Batch, 8 << 20)
        })
        .map_err(io_err)?;
    let mut store = RecipeStore::new();
    for batch in &batches {
        let stats = importer
            .import_batch(&db, &mut store, batch, 0)
            .map_err(io_err)?;
        let tombstones: std::collections::HashMap<usize, String> = stats
            .failures
            .iter()
            .map(|f| (f.index, f.reason.to_string()))
            .collect();
        t.span("recipedb.wal_append", || -> io::Result<()> {
            for (i, raw) in batch.iter().enumerate() {
                match tombstones.get(&i) {
                    Some(reason) => log.append_tombstone(raw, reason).map_err(io_err)?,
                    None => log.append(raw).map_err(io_err)?,
                }
            }
            Ok(())
        })?;
        t.span("recipedb.wal_sync", || log.sync()).map_err(io_err)?;
    }
    drop(log);
    let log = t
        .span("recipedb.wal_reopen", || {
            SegmentedLog::open(wal_dir, FsyncPolicy::Batch, 8 << 20)
        })
        .map_err(io_err)?;
    let (_, replayed) = t
        .span("recipedb.wal_replay", || log.replay(&db, &importer, 0))
        .map_err(io_err)?;
    r.attempted += 1;
    if replayed.stored != cold.stored || log.len() != all.len() {
        r.failed += 1;
        r.correct = false;
        r.note("CHECK FAILED: WAL replay differs from a cold import");
    }
    m.insert(
        "recipedb.wal_open_ms",
        t.durations_ms("recipedb.wal_reopen")[0],
    );
    m.insert(
        "recipedb.wal_replay_ms",
        t.durations_ms("recipedb.wal_replay")[0],
    );
    m.insert(
        "recipedb.wal_append_ms",
        median(&t.durations_ms("recipedb.wal_append")),
    );
    m.insert(
        "recipedb.wal_sync_ms",
        median(&t.durations_ms("recipedb.wal_sync")),
    );
    let bytes: u64 = std::fs::read_dir(wal_dir)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|md| md.len())
        .sum();
    m.insert(
        "recipedb.wal_bytes_per_record",
        bytes as f64 / log.len() as f64,
    );

    // The CLI layer around one batch: exec → exit of `culinaria ingest`.
    std::fs::write("batch_0.txt", crate::inputs::render_recipes(&batches[0]))?;
    let mut cli = Vec::new();
    for k in 0..3 {
        let f = t.span("cli.ingest_call", || {
            child::run(
                &o.bin,
                &["ingest", "batch_0.txt", "--wal", &format!("wal-cli-{k}")],
            )
        })?;
        r.attempted += 1;
        if !f.exit.ok() {
            r.failed += 1;
            r.correct = false;
            r.note("CHECK FAILED: culinaria ingest failed");
        }
        cli.push(f.exit.wall.as_secs_f64() * 1e3);
    }
    m.insert("cli.ingest_call_ms", median(&cli));

    std::fs::create_dir_all(out_dir)?;
    let spans_path = out_dir.join(format!("trace-{workload}-{}.jsonl", o.seed));
    t.write_jsonl(&spans_path)?;
    r.note(format!("spans written to {}", spans_path.display()));
    r.note(format!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    ));
    for (name, (calls, total, self_ms)) in t.summary() {
        r.note(format!(
            "{name:<34} {calls:>8} {total:>12.3} {self_ms:>12.3}"
        ));
    }
    r.note(format!("{:<34} {:>14}  moves", "per-layer metric", "value"));
    for &(name, unit, moves) in LAYER_METRICS {
        let v = m.get(name).copied().unwrap_or(f64::NAN);
        r.note(format!("{name:<34} {v:>14.4} {unit:<5} {moves}"));
        r.metric(name, v, unit);
    }
    Ok(r)
}
