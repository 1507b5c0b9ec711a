//! The measured runs (`--trace 0`): each starts the built `culinaria`
//! binary, measures it, and checks its outputs outside the timed
//! window.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world};
use culinaria::analysis::{FlavorViewRef, MonteCarloConfig, NullModel, RecipesViewRef};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::AlignedBytes;
use culinaria::obs::Metrics;
use culinaria::recipedb::{Importer, RawRecipe, RecipeStore};
use culinaria::serve::protocol::parse_request;
use culinaria::serve::{ServeConfig, Server};

use crate::child::{self, Daemon, Exit};
use crate::inputs::{self, ServeWorld};
use crate::load::{self, Run};
use crate::stats::{self, median};
use crate::{Opts, Report};

/// Set-up `ingest` calls before each ingest-append sequence; `setup_s`
/// is the median of all of them.
const SETUP_PER_SEQUENCE: usize = 4;
/// Server starts per serve run; `setup_s` is their median.
const SERVE_STARTS: usize = 3;
/// The latency limit a ladder step must meet, on its p99.
const LADDER_P99_MS: f64 = 5.0;
/// Most ladder steps in one run.
const LADDER_STEPS: usize = 16;
/// Windows per ladder step.
const LADDER_WINDOWS: usize = 3;
/// Windows of the fixed-rate phase; p50_ms and p99_ms are the medians
/// of the per-window quantiles, so one stall of the shared machine
/// moves one window, not the run's figure.
const FIXED_WINDOWS: usize = 8;
/// Closed-loop bursts; wall_s is the median burst.
const BURSTS: usize = 5;
/// Pipeline depth of the closed-loop burst.
const BURST_WINDOW: usize = 128;
/// How every run starts the server: the CLI's defaults, the dataset
/// `culinaria generate` wrote to `data/`, a socket in the run directory.
pub const SERVE_ARGS: [&str; 5] = ["serve", "--socket", "s.sock", "--data", "data"];

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Set `correct = false` and record why.
fn fail_check(r: &mut Report, why: impl Into<String>) {
    r.correct = false;
    r.note(format!("CHECK FAILED: {}", why.into()));
}

/// Account one finished program call.
fn count_call(r: &mut Report, what: &str, f: &child::Finished) {
    r.attempted += 1;
    if !f.exit.ok() {
        r.failed += 1;
        let tail: String = f
            .stderr
            .lines()
            .last()
            .unwrap_or("")
            .chars()
            .take(200)
            .collect();
        fail_check(r, format!("{what} exited {:?}: {tail}", f.exit.code));
    }
}

fn world_config(o: &Opts) -> WorldConfig {
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = o.scale;
    cfg.seed = o.seed;
    cfg
}

/// The gated end-to-end figures of `BENCHMARK.json`, which every
/// workload prints, and `fail_frac`, which is printed but not gated: it
/// is zero when all is well, so it cannot carry a relative bound (the
/// JSON's `failed` and `attempted` carry it).
fn emit(r: &mut Report, setup_s: f64, wall_s: f64, rss_mb: f64) {
    r.note(format!(
        "fail_frac (not gated): {} ({} failed / {} attempted)",
        r.fail_frac(),
        r.failed,
        r.attempted
    ));
    r.metric("setup_s", setup_s, "s");
    r.metric("wall_s", wall_s, "s");
    r.metric("rss_mb", rss_mb, "MiB");
}

/// The `analyze` table the library prints for this seed and config.
pub fn fig4_expected(o: &Opts) -> String {
    let world = generate_world(&world_config(o));
    let mc = MonteCarloConfig {
        n_recipes: o.mc,
        seed: o.seed,
        n_threads: 0,
    };
    let analyses = analyze_world(&world.flavor, &world.recipes, &NullModel::ALL, &mc);
    analyses_to_frame(&analyses).to_table_string(22)
}

/// `fig4-paper`: the paper's Fig 4 (`culinaria analyze`) back to back.
pub fn fig4(o: &Opts) -> io::Result<Report> {
    let mut r = Report::new();
    let (scale, seed, mc) = (o.scale.to_string(), o.seed.to_string(), o.mc.to_string());
    let analyze = |mc: &str| {
        child::run(
            &o.bin,
            &["analyze", "--scale", &scale, "--seed", &seed, "--mc", mc],
        )
    };
    // Set-up: the same pipeline with a token ensemble (world generation,
    // import, overlap builds, samplers), once before each measured call,
    // so the set-up samples span the run as the measured calls do.
    let mut setup = Vec::new();
    let t0 = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < 3 || t0.elapsed().as_secs_f64() < o.seconds {
        let f = analyze("200")?;
        count_call(&mut r, "analyze (set-up)", &f);
        setup.push(secs(f.exit.wall));
        let f = analyze(&mc)?;
        count_call(&mut r, "analyze", &f);
        calls.push(f);
    }
    let want = format!("{}\n", fig4_expected(o));
    // A call that exited non-zero is already counted as failed.
    for f in calls.iter().filter(|f| f.exit.ok()) {
        let rest = f.stdout.strip_prefix(&want);
        if !rest.is_some_and(|l| l.starts_with("pairing-sign agreement") && l.lines().count() == 1)
        {
            r.failed += 1;
            fail_check(
                &mut r,
                "analyze table differs from analyses_to_frame(analyze_world(..))",
            );
        }
    }
    let wall: Vec<f64> = calls.iter().map(|f| secs(f.exit.wall)).collect();
    r.note(format!("analyze calls: {} (wall s {wall:?})", wall.len()));
    r.note(format!("set-up calls: wall s {setup:?}"));
    let rss: Vec<f64> = calls.iter().map(|f| f.exit.rss_mb).collect();
    emit(&mut r, median(&setup), median(&wall), median(&rss));
    Ok(r)
}

/// The generated dataset as the server opens it.
pub struct Dataset {
    pub flavor: AlignedBytes,
    pub recipes: AlignedBytes,
}

impl Dataset {
    pub fn read(dir: &Path) -> io::Result<Dataset> {
        Ok(Dataset {
            flavor: AlignedBytes::read_file(dir.join("flavor.cfdb2"))?,
            recipes: AlignedBytes::read_file(dir.join("recipes.crdb2"))?,
        })
    }

    /// Run `f` over borrowed views of the artifacts.
    pub fn with_views<T>(
        &self,
        f: impl FnOnce(FlavorViewRef<'_>, RecipesViewRef<'_>) -> T,
    ) -> io::Result<T> {
        let flavor = culinaria::flavordb::artifact::open(self.flavor.as_slice())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let recipes = culinaria::recipedb::artifact::open(self.recipes.as_slice())
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(f(
            FlavorViewRef::Artifact(&flavor),
            RecipesViewRef::Artifact(&recipes),
        ))
    }
}

/// `culinaria generate` into `data/` in the working directory.
fn generate(o: &Opts, r: &mut Report) -> io::Result<Dataset> {
    let f = child::run(
        &o.bin,
        &[
            "generate",
            "--scale",
            &o.scale.to_string(),
            "--seed",
            &o.seed.to_string(),
            "--out",
            "data",
        ],
    )?;
    count_call(r, "generate", &f);
    r.note(format!("generate: {:.3} s", secs(f.exit.wall)));
    Dataset::read(Path::new("data"))
}

/// A started server: exec → first PING reply, and exec → warm-up
/// answered.
pub struct Started {
    pub daemon: Daemon,
    pub stream: std::os::unix::net::UnixStream,
    pub ready: Duration,
    pub setup: Duration,
    pub warm_replies: Vec<String>,
}

pub fn start_server(bin: &Path, warmup: &[String]) -> io::Result<Started> {
    let daemon = Daemon::spawn(bin, &SERVE_ARGS, Path::new("serve.log"))?;
    let stream = load::connect(SERVE_ARGS[2], Duration::from_secs(60))?;
    load::call_all(&stream, &["PING".to_owned()])?;
    let ready = daemon.started.elapsed();
    let warm_replies = load::call_all(&stream, warmup)?;
    let setup = daemon.started.elapsed();
    Ok(Started {
        daemon,
        stream,
        ready,
        setup,
        warm_replies,
    })
}

/// Check served replies against `oracle` (the in-process
/// `Server::handle` reply, id stripped): each request counts as
/// attempted, and as failed when its reply differs or, with
/// `busy_fails`, when it was shed with `BUSY`.
pub fn check_replies(
    r: &mut Report,
    what: &str,
    reqs: &[String],
    replies: &[String],
    busy_fails: bool,
    oracle: &mut dyn FnMut(&str) -> String,
) {
    let mut wrong = 0;
    let mut busy = 0;
    let mut first = None;
    for (req, reply) in reqs.iter().zip(replies) {
        if reply.starts_with("BUSY") {
            busy += 1;
            continue;
        }
        let want = oracle(req);
        if *reply != want {
            wrong += 1;
            first.get_or_insert_with(|| {
                format!("{req:?}: served {reply:.120?}, expected {want:.120?}")
            });
        }
    }
    r.attempted += reqs.len() as u64;
    r.failed += wrong + if busy_fails { busy } else { 0 };
    if let Some(first) = first {
        fail_check(r, format!("{what}: {wrong} wrong repl(ies), first {first}"));
    }
    if busy_fails && busy > 0 {
        fail_check(r, format!("{what}: {busy} request(s) shed with BUSY"));
    }
}

/// The in-process reference: `Server::handle` over the same artifacts
/// with the CLI's default config, memoised per distinct request.
pub fn oracle<'s, 'a>(server: &'s Server<'a>) -> impl FnMut(&str) -> String + use<'s, 'a> {
    let mut memo: HashMap<String, String> = HashMap::new();
    move |req: &str| {
        memo.entry(req.to_owned())
            .or_insert_with(|| match parse_request(format!("0 {req}").as_bytes()) {
                Ok((id, parsed)) => {
                    let reply = server.handle(id, &parsed);
                    reply.strip_prefix("0 ").unwrap_or(&reply).to_owned()
                }
                Err((_, e)) => format!("ERR {} {}", e.code, e.message),
            })
            .clone()
    }
}

/// One serve phase kept for the output check.
struct Phase {
    name: String,
    reqs: Vec<String>,
    run: Run,
    /// BUSY replies count as failed (everywhere but ladder probes that
    /// did not pass).
    busy_fails: bool,
}

/// Per-workload serve settings.
pub struct ServePlan {
    pub cold: bool,
    /// Offered rate of the fixed-rate window (p50/p99).
    pub rate: f64,
    /// First ladder rate.
    pub ladder_from: f64,
    /// Requests in the closed-loop burst (per 10 s of `--seconds`).
    pub burst: usize,
}

impl ServePlan {
    pub fn for_workload(cold: bool) -> ServePlan {
        if cold {
            ServePlan {
                cold,
                rate: 2000.0,
                ladder_from: 8000.0,
                burst: 50_000,
            }
        } else {
            ServePlan {
                cold,
                rate: 5000.0,
                ladder_from: 20_000.0,
                burst: 200_000,
            }
        }
    }
}

/// A ladder window passes when its p99 meets the limit with no growing
/// backlog and a generator that kept its schedule.
fn window_passes(run: &Run, rate: f64) -> bool {
    stats::quantile(&run.latency_ms, 99.0) <= LADDER_P99_MS
        && run.backlog_at_end as f64 <= (rate * LADDER_P99_MS / 1e3).max(16.0)
        && !run.generator_behind()
}

/// `serve-hot` / `serve-cold`: `culinaria serve --socket` under an
/// open-loop fixed rate, a closed-loop burst and a rate ladder.
pub fn serve(o: &Opts, plan: &ServePlan) -> io::Result<Report> {
    let mut r = Report::new();
    let data = generate(o, &mut r)?;
    let world = data.with_views(ServeWorld::from_views)?;
    let warmup = world.warmup();
    let step_s = (o.seconds * 0.015).max(0.02);
    let window_n = ((o.seconds * 0.3 / FIXED_WINDOWS as f64) * plan.rate).ceil() as usize;
    let burst_n = ((o.seconds / 10.0) * plan.burst as f64 / BURSTS as f64).ceil() as usize;
    let mut feed = if plan.cold {
        world.cold_requests(o.seed)
    } else {
        world.hot_requests(o.seed)
    };

    let mut setups = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    let mut warm_sets: Vec<Vec<String>> = Vec::new();
    let mut last = None;
    for k in 0..SERVE_STARTS {
        let s = start_server(&o.bin, &warmup)?;
        setups.push(secs(s.setup));
        r.note(format!(
            "server start {k}: ready {:.1} ms, warm-up answered {:.1} ms",
            s.ready.as_secs_f64() * 1e3,
            s.setup.as_secs_f64() * 1e3
        ));
        r.attempted += 1;
        warm_sets.push(s.warm_replies.clone());
        if k + 1 < SERVE_STARTS {
            drop(s.stream);
            let exit = s.daemon.terminate()?;
            check_exit(&mut r, &exit);
        } else {
            last = Some(s);
        }
    }
    let s = last.ok_or_else(|| io::Error::other("no server started"))?;

    // Fixed rate: p50/p99 from due time, per window; windows where
    // the generator fell behind its schedule are not results.
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut pooled = Vec::new();
    let mut lateness = Vec::new();
    for w in 0..FIXED_WINDOWS {
        let reqs = feed.take(window_n);
        let run = load::open_loop(&s.stream, &reqs, plan.rate)?;
        if run.generator_behind() {
            r.note(format!(
                "fixed window {w}: generator fell behind, window dropped"
            ));
        } else {
            p50s.push(stats::quantile(&run.latency_ms, 50.0));
            p99s.push(stats::quantile(&run.latency_ms, 99.0));
            pooled.extend_from_slice(&run.latency_ms);
            lateness.extend_from_slice(&run.lateness_ms);
        }
        phases.push(Phase {
            name: format!("fixed {} rps, window {w}", plan.rate),
            reqs,
            run,
            busy_fails: true,
        });
    }
    if p99s.len() * 2 <= FIXED_WINDOWS {
        fail_check(
            &mut r,
            "the generator fell behind its schedule in most fixed-rate windows",
        );
    }

    // Closed-loop bursts: wall_s.
    let mut burst_s = Vec::new();
    for k in 0..BURSTS {
        let reqs = feed.take(burst_n);
        let run = load::closed_loop(&s.stream, &reqs, BURST_WINDOW)?;
        burst_s.push(secs(run.elapsed));
        phases.push(Phase {
            name: format!("burst {k}"),
            reqs,
            run,
            busy_fails: true,
        });
    }

    // Rate ladder: ×1.5 until a step fails, then geometric bisection
    // between the last pass and the first failure down to 10%. A step
    // is LADDER_WINDOWS windows; it passes when no request is shed or
    // answered ERR and the median window meets the p99 limit with no
    // growing backlog and an on-schedule generator.
    let mut pass = 0.0f64;
    let mut fail = f64::INFINITY;
    let mut rate = plan.ladder_from;
    for _ in 0..LADDER_STEPS {
        let n = (rate * step_s).ceil() as usize;
        let mut runs = Vec::new();
        for w in 0..LADDER_WINDOWS {
            let reqs = feed.take(n);
            let run = load::open_loop(&s.stream, &reqs, rate)?;
            runs.push((w, reqs, run));
        }
        let verdicts: Vec<bool> = runs
            .iter()
            .map(|(_, _, run)| window_passes(run, rate))
            .collect();
        let clean = runs
            .iter()
            .all(|(_, _, run)| run.busy() == 0 && run.errs() == 0);
        let ok = clean && verdicts.iter().filter(|&&v| v).count() * 2 > LADDER_WINDOWS;
        let p99s: Vec<String> = runs
            .iter()
            .map(|(_, _, run)| format!("{:.3}", stats::quantile(&run.latency_ms, 99.0)))
            .collect();
        let busy: usize = runs.iter().map(|(_, _, run)| run.busy()).sum();
        r.note(format!(
            "ladder {rate:.0} rps: window p99 ms [{}], busy {busy}: {}",
            p99s.join(", "),
            if ok { "pass" } else { "fail" }
        ));
        for (w, reqs, run) in runs {
            phases.push(Phase {
                name: format!("ladder {rate:.0} rps, window {w}"),
                reqs,
                run,
                busy_fails: ok,
            });
        }
        if ok {
            pass = pass.max(rate);
        } else {
            fail = fail.min(rate);
        }
        rate = if fail.is_infinite() {
            rate * 1.5
        } else if pass == 0.0 {
            rate / 1.5
        } else if fail / pass > 1.1 {
            (pass * fail).sqrt()
        } else {
            break;
        };
    }
    drop(s.stream);
    let exit = s.daemon.terminate()?;
    check_exit(&mut r, &exit);
    r.note(format!(
        "drain (SIGTERM → exit): {:.1} ms",
        secs(exit.wall) * 1e3
    ));

    // Output check, outside every timed window.
    data.with_views(|flavor, recipes| {
        let server = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
        let mut oracle = oracle(&server);
        for (k, replies) in warm_sets.iter().enumerate() {
            check_replies(
                &mut r,
                &format!("warm-up of start {k}"),
                &warmup,
                replies,
                true,
                &mut oracle,
            );
        }
        for p in &phases {
            check_replies(
                &mut r,
                &p.name,
                &p.reqs,
                &p.run.replies,
                p.busy_fails,
                &mut oracle,
            );
        }
    })?;

    r.note(format!(
        "fixed {} rps: window p50 ms {p50s:.4?}, window p99 ms {p99s:.4?}",
        plan.rate
    ));
    r.note(format!(
        "fixed {} rps, all windows pooled: {} {}; generator lateness {} {}",
        plan.rate,
        stats::p50(&pooled),
        stats::tail(&pooled),
        stats::p50(&lateness),
        stats::tail(&lateness)
    ));
    r.note(format!("burst walls s {burst_s:.4?}"));
    let max_rps = if pass > 0.0 { pass } else { f64::NAN };
    if pass == 0.0 {
        fail_check(&mut r, "no ladder step passed");
    }
    emit(&mut r, median(&setups), median(&burst_s), exit.rss_mb);
    // The serve workloads' own figures (see README.md for why they are
    // not in BENCHMARK.json).
    r.metric("p50_ms", median(&p50s), "ms");
    r.metric("p99_ms", median(&p99s), "ms");
    r.metric("max_rps", max_rps, "1/s");
    Ok(r)
}

fn check_exit(r: &mut Report, exit: &Exit) {
    r.attempted += 1;
    if !exit.ok() {
        r.failed += 1;
        fail_check(r, format!("serve exited {:?} on SIGTERM", exit.code));
    }
}

/// The ingest corpus sized for `o.scale`: 20 batches, 45,780 recipes
/// at scale 1.
pub fn ingest_corpus(o: &Opts) -> Vec<Vec<RawRecipe>> {
    let per_batch = ((2289.0 * o.scale).round() as usize).max(5);
    inputs::ingest_batches(&curated_db(), o.seed, 20, per_batch)
}

/// The `replay` summary line a cold import of the whole corpus implies.
pub fn ingest_expected(batches: &[Vec<RawRecipe>]) -> io::Result<String> {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let all: Vec<RawRecipe> = batches.concat();
    let stats = importer
        .import_batch(&db, &mut RecipeStore::new(), &all, 0)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(format!(
        "replayed {n}/{n} records: {} stored, {} tombstoned, {} lines resolved, {} unresolved",
        stats.stored,
        stats.failures.len(),
        stats.lines_resolved,
        stats.lines_unresolved,
        n = all.len()
    ))
}

/// The `records` count an `ingest` summary line reports.
fn wal_records(stdout: &str) -> Option<usize> {
    let rest = stdout.split(" wal ").nth(1)?;
    let after = rest.split(": ").nth(1)?;
    after.split(' ').next()?.parse().ok()
}

/// `ingest-append`: 20 `culinaria ingest --wal` calls growing one log
/// to ~45k records, closed by `culinaria replay`.
pub fn ingest(o: &Opts) -> io::Result<Report> {
    let mut r = Report::new();
    let batches = ingest_corpus(o);
    for (i, b) in batches.iter().enumerate() {
        std::fs::write(format!("batch_{i}.txt"), inputs::render_recipes(b))?;
    }
    let run = |args: &[&str]| child::run(&o.bin, args);

    let expected = ingest_expected(&batches)?;
    let mut setup = Vec::new();
    let t0 = Instant::now();
    // seqs[k][i]: wall of call i (the 20 ingests, then replay) of sequence k.
    let mut seqs: Vec<Vec<f64>> = Vec::new();
    let mut seq_rss = Vec::new();
    while seqs.len() < 2 || t0.elapsed().as_secs_f64() < o.seconds {
        // Set-up: the first call of a sequence (curated lexicon, alias
        // index, import of batch 0, WAL create and fsync) into a fresh
        // WAL, a few times before each sequence so the samples span the
        // run as the sequences do.
        for k in 0..SETUP_PER_SEQUENCE {
            let dir = format!("wal-setup-{k}");
            let f = run(&["ingest", "batch_0.txt", "--wal", &dir])?;
            count_call(&mut r, "ingest (set-up)", &f);
            setup.push(secs(f.exit.wall));
            std::fs::remove_dir_all(&dir)?;
        }
        let dir = format!("wal-{}", seqs.len());
        let mut walls = Vec::new();
        let mut rss = 0.0f64;
        let mut offered = 0;
        for (i, b) in batches.iter().enumerate() {
            let f = run(&["ingest", &format!("batch_{i}.txt"), "--wal", &dir])?;
            count_call(&mut r, "ingest", &f);
            offered += b.len();
            if f.exit.ok() && wal_records(&f.stdout) != Some(offered) {
                r.failed += 1;
                fail_check(
                    &mut r,
                    format!(
                        "ingest {i}: wal record count is not {offered}: {:?}",
                        f.stdout.trim()
                    ),
                );
            }
            walls.push(secs(f.exit.wall));
            rss = rss.max(f.exit.rss_mb);
        }
        let f = run(&["replay", "--wal", &dir])?;
        count_call(&mut r, "replay", &f);
        if f.exit.ok() && f.stdout.trim() != expected {
            r.failed += 1;
            fail_check(
                &mut r,
                format!("replay {:?} != cold import {expected:?}", f.stdout.trim()),
            );
        }
        walls.push(secs(f.exit.wall));
        seqs.push(walls);
        seq_rss.push(rss.max(f.exit.rss_mb));
        std::fs::remove_dir_all(&dir)?;
    }
    // wall_s: one sequence with each call at its median over the run's
    // sequences, so a stall of the shared machine during one call moves
    // that call's sample, not the figure.
    let wall_s: f64 = (0..seqs[0].len())
        .map(|i| median(&seqs.iter().map(|w| w[i]).collect::<Vec<_>>()))
        .sum();
    let totals: Vec<f64> = seqs.iter().map(|w| w.iter().sum()).collect();
    r.note(format!("sequences: {} (wall s {totals:?})", seqs.len()));
    r.note(format!("set-up calls: wall s {setup:.4?}"));
    r.note(format!("expected replay: {expected}"));
    r.note(format!(
        "records_per_s (not gated; records offered ÷ wall_s): {} 1/s",
        batches.iter().map(Vec::len).sum::<usize>() as f64 / wall_s
    ));
    emit(&mut r, median(&setup), wall_s, median(&seq_rss));
    Ok(r)
}

/// Run one measured workload in the current directory.
pub fn run(workload: &str, o: &Opts) -> io::Result<Report> {
    match workload {
        "fig4-paper" => fig4(o),
        "serve-hot" => serve(o, &ServePlan::for_workload(false)),
        "serve-cold" => serve(o, &ServePlan::for_workload(true)),
        "ingest-append" => ingest(o),
        other => Err(io::Error::other(format!("unknown workload {other:?}"))),
    }
}

/// The world the fig4-paper and trace runs generate in-process.
pub fn world(o: &Opts) -> World {
    generate_world(&world_config(o))
}
