//! `culinaria` — command-line front end for the culinary-patterns
//! framework.
//!
//! ```text
//! culinaria generate [--scale S] [--seed N] [--out DIR]
//! culinaria migrate-artifact [--in DIR] [--out DIR]
//! culinaria analyze  [--scale S] [--seed N] [--mc N] [--metrics[=json]]
//! culinaria report   <REGION> [--scale S] [--seed N] [--mc N] [--metrics[=json]]
//! culinaria import   <FILE> [--threads N] [--metrics[=json]]
//! culinaria ingest   <FILE> --wal DIR [--threads N]
//!                    [--fsync always|batch|off] [--segment-bytes N] [--metrics[=json]]
//! culinaria replay   --wal DIR [--prefix N] [--threads N]
//!                    [--analyze [--mc N] [--seed N] [--metrics[=json]]]
//! culinaria pairings <REGION> [--scale S] [--seed N] [--top K]
//! culinaria suggest  <REGION> [--scale S] [--seed N] [--size N] [--uniform|--contrast]
//! culinaria serve    (--stdio | --socket PATH) [--data DIR] [--threads N]
//!                    [--batch N] [--cache-entries N] [--max-queue N]
//!                    [--mc N] [--seed N] [--metrics[=json]]
//!                    socket only: [--read-timeout MS] [--write-timeout MS]
//!                    [--idle-timeout MS] [--max-conns N] [--force-bind]
//! culinaria regions
//! ```
//!
//! Every flag is checked: a flag the subcommand does not take, or a
//! value that does not parse, exits 2 with a message naming the flag.
//!
//! `--metrics` renders the observability registry (spans, counters,
//! histograms — see `culinaria-obs`) to stderr when the command
//! finishes; `--metrics=json` renders it as one JSON object instead.

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use culinaria::analysis::contribution::top_contributors;
use culinaria::analysis::generation::{Objective, RecipeGenerator};
use culinaria::analysis::pairing::{novel_pairings, OverlapCache};
use culinaria::analysis::z_analysis::{analyses_to_frame, try_analyze_cuisine, try_analyze_world};
use culinaria::analysis::{FlavorViewRef, RecipesViewRef};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::{AlignedBytes, FlavorArtifactBuilder, FlavorDb};
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{ImportStats, Importer, RawRecipe};
use culinaria::recipedb::{
    FsyncPolicy, RecipeArtifactBuilder, RecipeStore, Region, SegmentedLog, Source,
};
use culinaria::serve::transport::{self, Listener};
use culinaria::serve::{ServeConfig, Server, ShutdownFlag};

/// Every subcommand and the flags it takes (names without `--`). A
/// flag missing from a command's list is refused with exit 2, so a
/// typo or a retired flag never runs silently with defaults.
const COMMANDS: &[(&str, &[&str])] = &[
    ("regions", &[]),
    ("generate", &["scale", "seed", "out"]),
    ("migrate-artifact", &["in", "out"]),
    ("analyze", &["scale", "seed", "mc", "metrics"]),
    ("report", &["scale", "seed", "mc", "metrics"]),
    ("import", &["threads", "metrics"]),
    (
        "ingest",
        &["wal", "threads", "fsync", "segment-bytes", "metrics"],
    ),
    (
        "replay",
        &[
            "wal", "prefix", "threads", "analyze", "mc", "seed", "metrics",
        ],
    ),
    ("pairings", &["scale", "seed", "top"]),
    ("suggest", &["scale", "seed", "size", "uniform", "contrast"]),
    (
        "serve",
        &[
            "stdio",
            "socket",
            "data",
            "threads",
            "batch",
            "cache-entries",
            "max-queue",
            "mc",
            "seed",
            "metrics",
            "read-timeout",
            "write-timeout",
            "idle-timeout",
            "max-conns",
            "force-bind",
        ],
    ),
];

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if let Some(name) = raw[i].strip_prefix("--") {
            // `--name=value` binds inline; otherwise a non-`--`
            // successor is the value. A `--`-prefixed successor is the
            // next flag, not a value — boolean flags (`--uniform`,
            // `--contrast`) must not swallow it, whatever order the
            // flags come in.
            if let Some((name, value)) = name.split_once('=') {
                flags.insert(name.to_owned(), value.to_owned());
                i += 1;
                continue;
            }
            let value = match raw.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    i += 2;
                    next.clone()
                }
                _ => {
                    i += 1;
                    String::new()
                }
            };
            flags.insert(name.to_owned(), value);
        } else {
            positional.push(raw[i].clone());
            i += 1;
        }
    }
    Args { flags, positional }
}

impl Args {
    /// Refuse any flag not in `allowed`. The first offender in name
    /// order is reported, so the message does not depend on hash order.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        let mut names: Vec<&String> = self.flags.keys().collect();
        names.sort();
        match names.into_iter().find(|n| !allowed.contains(&n.as_str())) {
            None => Ok(()),
            Some(name) if allowed.is_empty() => {
                Err(format!("--{name}: unknown flag (this command takes none)"))
            }
            Some(name) => Err(format!(
                "--{name}: unknown flag (this command takes --{})",
                allowed.join(", --")
            )),
        }
    }

    /// The value of `--name`, or `None` when the flag is absent. A
    /// present-yet-unparseable value is an error, never a silent
    /// fall-back: `--mc lots` must not run with the default.
    fn opt_flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse value {v:?}"))
            })
            .transpose()
    }

    /// [`Args::opt_flag`] with a default for the absent flag.
    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_flag(name)?.unwrap_or(default))
    }

    /// [`Args::flag`] for a count that must be at least `min`: a
    /// smaller value is refused here, by name, instead of failing once
    /// the work has started.
    fn count(&self, name: &str, default: usize, min: usize) -> Result<usize, String> {
        let n = self.flag(name, default)?;
        if n < min {
            return Err(format!("--{name}: must be at least {min}, got {n}"));
        }
        Ok(n)
    }

    /// A path-like flag: `None` when absent, an error when given
    /// without a value.
    fn path(&self, name: &str) -> Result<Option<String>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) if v.is_empty() => Err(format!("--{name}: needs a value")),
            Some(v) => Ok(Some(v.clone())),
        }
    }

    /// A boolean switch: bare `--name` (or `--name true`) turns it on.
    fn switch(&self, name: &str) -> Result<bool, String> {
        match self.flags.get(name).map(String::as_str) {
            None | Some("false") => Ok(false),
            Some("" | "true") => Ok(true),
            Some(v) => Err(format!(
                "--{name}: takes no value (or true/false), got {v:?}"
            )),
        }
    }

    /// `Some(json)` when `--metrics` (text) or `--metrics=json` asked
    /// for a telemetry dump; `None` when absent.
    fn metrics_mode(&self) -> Result<Option<bool>, String> {
        match self.flags.get("metrics").map(String::as_str) {
            None => Ok(None),
            Some("") => Ok(Some(false)),
            Some("json") => Ok(Some(true)),
            Some(other) => Err(format!(
                "--metrics: expected `--metrics` or `--metrics=json`, got {other:?}"
            )),
        }
    }

    /// The metrics sink selected by `--metrics[=json]`; disabled
    /// (zero-cost no-op) when absent.
    fn metrics(&self) -> Result<MetricsSink, String> {
        Ok(match self.metrics_mode()? {
            None => MetricsSink {
                metrics: Metrics::disabled(),
                json: false,
            },
            Some(json) => MetricsSink {
                metrics: Metrics::enabled(),
                json,
            },
        })
    }

    /// The `<REGION>` positional of `report`, `suggest` and `pairings`.
    fn region(&self) -> Result<Region, String> {
        self.positional
            .first()
            .and_then(|s| s.parse::<Region>().ok())
            .ok_or_else(|| "needs a region code (see `culinaria regions`)".to_owned())
    }
}

/// A [`Metrics`] handle plus the output format `--metrics` selected.
struct MetricsSink {
    metrics: Metrics,
    json: bool,
}

impl MetricsSink {
    /// Render the registry to stderr (stdout stays the command's data).
    /// No-op when metrics were not requested.
    fn dump(&self) {
        if !self.metrics.is_enabled() {
            return;
        }
        if self.json {
            eprintln!("{}", self.metrics.render_json());
        } else {
            eprint!("{}", self.metrics.render_text());
        }
    }
}

/// The `--scale`/`--seed` world of `generate`, `analyze`, `report`,
/// `pairings` and `suggest`.
fn world_config(args: &Args) -> Result<WorldConfig, String> {
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = args.flag("scale", 0.1)?;
    cfg.seed = args.flag("seed", 2018u64)?;
    Ok(cfg)
}

fn build_world(cfg: &WorldConfig) -> World {
    eprintln!(
        "generating world (scale {}, seed {})…",
        cfg.recipe_scale, cfg.seed
    );
    generate_world(cfg)
}

/// The `--mc`/`--seed` Monte Carlo settings, with `n_recipes` as the
/// command's default. A null ensemble needs two sampled recipes for a
/// spread, so `--mc` below 2 is refused.
fn mc_config(args: &Args, n_recipes: usize) -> Result<MonteCarloConfig, String> {
    Ok(MonteCarloConfig {
        n_recipes: args.count("mc", n_recipes, 2)?,
        seed: args.flag("seed", 2018u64)?,
        n_threads: 0,
    })
}

/// Write `bytes` to `dir/name` and report it on stdout.
fn write_file(dir: &str, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let path = format!("{dir}/{name}");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(bytes)?;
    println!("wrote {path} ({} bytes)", bytes.len());
    Ok(())
}

/// One malformed block found while parsing the `import` text format.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParseIssue {
    /// 1-based line number of the offending block header.
    line: usize,
    message: String,
}

/// Parse the `import` command's plain-text recipe format: recipes are
/// blank-line-separated blocks, the first line of each block is
/// `name | REGION_CODE`, every following line is one free-text
/// ingredient line. `#` starts a comment line anywhere.
///
/// Malformed blocks (bad header, unknown region tag) do not abort the
/// parse: every well-formed recipe is returned, and every bad block is
/// reported as a [`ParseIssue`] with its line number so curators can
/// fix the whole file in one pass.
fn parse_raw_recipes(text: &str) -> (Vec<RawRecipe>, Vec<ParseIssue>) {
    let mut raws = Vec::new();
    let mut issues = Vec::new();
    let mut block: Vec<(usize, &str)> = Vec::new();
    // A sentinel blank line flushes the final block without a special case.
    for (idx, line) in text.lines().chain(std::iter::once("")).enumerate() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if !line.is_empty() {
            block.push((idx + 1, line));
            continue;
        }
        let Some(((header_line, header), ingredients)) = block.split_first() else {
            continue;
        };
        let Some((name, code)) = header.split_once('|') else {
            issues.push(ParseIssue {
                line: *header_line,
                message: format!("recipe header must be `name | REGION_CODE`, got {header:?}"),
            });
            block.clear();
            continue;
        };
        let code = code.trim();
        let Ok(region) = code.parse::<Region>() else {
            issues.push(ParseIssue {
                line: *header_line,
                message: format!("unknown region code {code:?}"),
            });
            block.clear();
            continue;
        };
        raws.push(RawRecipe {
            name: name.trim().to_owned(),
            region,
            source: Source::Synthetic,
            ingredient_lines: ingredients.iter().map(|(_, l)| (*l).to_owned()).collect(),
        });
        block.clear();
    }
    (raws, issues)
}

/// `ingest --wal`: open the segmented log (recovering torn tails,
/// tolerating orphans; a fresh log is stamped with the curated
/// importer), report what recovery repaired, and hand the batch to
/// [`SegmentedLog::ingest`]. That call re-resolves history only when
/// the log's importer stamp is missing or differs, so a call costs
/// O(batch) on a log this importer wrote. `None` = failure (already
/// reported).
fn ingest_into_wal(
    dir: &str,
    policy: FsyncPolicy,
    segment_bytes: u64,
    raws: &[RawRecipe],
    threads: usize,
    metrics: &Metrics,
) -> Option<ImportStats> {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut log = match SegmentedLog::open_for(dir, policy, segment_bytes, &importer) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("{dir}: cannot open wal: {e}");
            return None;
        }
    };
    report_recovery(dir, &log);
    let prior = log.len();
    let stats = match log.ingest(&db, &importer, raws, threads, metrics) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return None;
        }
    };
    println!(
        "ingested {}/{} recipes ({} tombstoned); \
         wal {dir}: {} records (+{}) across {} segment(s) [fsync={policy}]; store: {} recipes",
        stats.stored,
        stats.offered,
        stats.failures.len(),
        log.len(),
        log.len() - prior,
        log.n_segments(),
        log.n_stored()
    );
    Some(stats)
}

/// Tell the operator what opening the WAL repaired, if anything.
fn report_recovery(dir: &str, log: &SegmentedLog) {
    let rec = log.recovery();
    if rec.recovered() || rec.orphans > 0 {
        eprintln!(
            "{dir}: recovered — {} torn byte(s) truncated, {} orphan segment(s)",
            rec.truncated_bytes, rec.orphans
        );
    }
}

/// Read and parse a recipe text file, reporting malformed blocks on
/// stderr. `None` = unreadable (already reported).
fn read_raw_recipes(path: &str) -> Option<(Vec<RawRecipe>, Vec<ParseIssue>)> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return None;
        }
    };
    let (raws, issues) = parse_raw_recipes(&text);
    for issue in &issues {
        eprintln!("{path}:{}: {}", issue.line, issue.message);
    }
    Some((raws, issues))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         culinaria generate [--scale S] [--seed N] [--out DIR]   write dataset artifacts + CSV\n  \
         culinaria migrate-artifact [--in DIR] [--out DIR]       attach overlap sections to the artifacts\n  \
         culinaria analyze  [--scale S] [--seed N] [--mc N]      Fig-4 z-score table\n  \
         culinaria report   <REGION> [--scale S] [--seed N]      one cuisine in depth\n  \
         culinaria import   <FILE> [--threads N]                 import raw recipes from a file\n  \
         culinaria ingest   <FILE> --wal DIR                     import + append to the replay log\n  \
         culinaria replay   --wal DIR [--prefix N] [--analyze]   rebuild the store\n  \
         culinaria pairings <REGION> [--scale S] [--top K]       novel pairing suggestions\n  \
         culinaria suggest  <REGION> [--size N] [--uniform|--contrast]  generate a recipe\n  \
         culinaria serve    (--stdio | --socket PATH) [--data DIR]      online query service\n  \
         culinaria regions                                       list Table 1 regions\n\
         \n\
         analyze, report, import, ingest and replay --analyze accept --metrics[=json]: a\n\
         pipeline-telemetry dump (spans, counters, histograms) on stderr at exit."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        return usage();
    };
    let Some(&(_, allowed)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        return usage();
    };
    let args = parse_args(&raw[1..]);
    match args.only(allowed).and_then(|()| run(command, &args)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{command}: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Run one subcommand. `Err` is a usage error (bad flag, missing
/// positional): `main` prints it and exits 2. Runtime failures are
/// reported here and come back as `Ok(ExitCode::FAILURE)`. Each arm
/// reads all of its flags before doing any work.
fn run(command: &str, args: &Args) -> Result<ExitCode, String> {
    Ok(match command {
        "regions" => {
            println!(
                "{:5} {:24} {:>8} {:>12} {:>12}",
                "code", "name", "recipes", "ingredients", "pairing"
            );
            for r in Region::ALL {
                println!(
                    "{:5} {:24} {:>8} {:>12} {:>12}",
                    r.code(),
                    r.name(),
                    r.paper_recipe_count(),
                    r.paper_ingredient_count(),
                    if r.paper_positive_pairing() {
                        "uniform"
                    } else {
                        "contrasting"
                    }
                );
            }
            ExitCode::SUCCESS
        }
        "generate" => {
            let cfg = world_config(args)?;
            let out = args
                .path("out")?
                .unwrap_or_else(|| "culinaria-data".to_owned());
            let world = build_world(&cfg);
            if let Err(e) = std::fs::create_dir_all(&out) {
                eprintln!("cannot create {out}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            let (flavor, recipes) = match (
                FlavorArtifactBuilder::new(&world.flavor).build(),
                RecipeArtifactBuilder::new(&world.recipes).build(),
            ) {
                (Ok(f), Ok(r)) => (f, r),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("cannot encode v2 artifact: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let csv = culinaria::recipedb::io::to_csv(&world.recipes);
            if let Err(e) = write_file(&out, "flavor.cfdb2", &flavor)
                .and_then(|_| write_file(&out, "recipes.crdb2", &recipes))
                .and_then(|_| write_file(&out, "recipes.csv", csv.as_bytes()))
            {
                eprintln!("write failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
            ExitCode::SUCCESS
        }
        "migrate-artifact" => {
            // Re-emit a CFDB2/CRDB2 pair with per-region overlap
            // triangles precomputed into the flavor artifact, so
            // analyses reuse them instead of re-sweeping at open time.
            let dir = args
                .path("in")?
                .unwrap_or_else(|| "culinaria-data".to_owned());
            let out = args.path("out")?.unwrap_or_else(|| dir.clone());
            let Some((db, store)) = decode_artifacts(&dir) else {
                return Ok(ExitCode::FAILURE);
            };
            let mut builder = FlavorArtifactBuilder::new(&db);
            for region in store.regions() {
                let cache = OverlapCache::for_cuisine(&db, &store.cuisine(region));
                if cache.is_empty() {
                    continue;
                }
                if let Err(e) = builder.add_overlap(region.code(), cache.pool(), cache.tri()) {
                    eprintln!("cannot attach {} overlap section: {e}", region.code());
                    return Ok(ExitCode::FAILURE);
                }
            }
            let (flavor, recipes) =
                match (builder.build(), RecipeArtifactBuilder::new(&store).build()) {
                    (Ok(f), Ok(r)) => (f, r),
                    (Err(e), _) | (_, Err(e)) => {
                        eprintln!("cannot encode v2 artifact: {e}");
                        return Ok(ExitCode::FAILURE);
                    }
                };
            if let Err(e) = std::fs::create_dir_all(&out) {
                eprintln!("cannot create {out}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            if let Err(e) = write_file(&out, "flavor.cfdb2", &flavor)
                .and_then(|_| write_file(&out, "recipes.crdb2", &recipes))
            {
                eprintln!("write failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
            ExitCode::SUCCESS
        }
        "analyze" => {
            let cfg = world_config(args)?;
            let mc = mc_config(args, 20_000)?;
            let sink = args.metrics()?;
            let world = build_world(&cfg);
            let analyses = match try_analyze_world(
                &world.flavor,
                &world.recipes,
                &NullModel::ALL,
                &mc,
                &sink.metrics,
            ) {
                Ok(a) => a,
                Err(failure) => {
                    eprintln!("analysis failed: {failure}");
                    sink.dump();
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!("{}", analyses_to_frame(&analyses).to_table_string(22));
            let matches = analyses
                .iter()
                .filter(|a| {
                    (a.z_random().unwrap_or(0.0) > 0.0) == a.region.paper_positive_pairing()
                })
                .count();
            println!("pairing-sign agreement with the paper: {matches}/22");
            sink.dump();
            ExitCode::SUCCESS
        }
        "import" => {
            let threads = args.flag("threads", 0usize)?;
            let sink = args.metrics()?;
            let Some(path) = args.positional.first() else {
                return Err("needs a file path (see --help for the format)".to_owned());
            };
            let Some((raws, issues)) = read_raw_recipes(path) else {
                return Ok(ExitCode::FAILURE);
            };
            let db = culinaria::flavordb::curated::curated_db();
            let importer = Importer::from_flavor_db(&db);
            let mut store = RecipeStore::new();
            let stats = match importer.import_batch_observed(
                &db,
                &mut store,
                &raws,
                threads,
                &sink.metrics,
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("import failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!(
                "imported {}/{} recipes ({} dropped), {} lines resolved, {} unresolved",
                stats.stored,
                stats.offered,
                stats.dropped,
                stats.lines_resolved,
                stats.lines_unresolved
            );
            if !stats.unresolved_tokens.is_empty() {
                println!("top unresolved tokens (curation worklist):");
                for (tok, count) in stats.unresolved_tokens.iter().take(10) {
                    println!("  {count:>4}× {tok}");
                }
            }
            for failure in &stats.failures {
                eprintln!("dropped {failure}");
            }
            sink.dump();
            if issues.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{path}: {} malformed block(s) skipped — fix them and re-import",
                    issues.len()
                );
                ExitCode::FAILURE
            }
        }
        "ingest" => {
            let threads = args.flag("threads", 0usize)?;
            let policy = args
                .flag("fsync", FsyncPolicy::Batch)
                .map_err(|msg| format!("{msg} (expected always|batch|off)"))?;
            let segment_bytes = args.flag("segment-bytes", 8u64 * 1024 * 1024)?;
            let sink = args.metrics()?;
            let Some(dir) = args.path("wal")? else {
                return Err("needs --wal DIR (the segmented replay log)".to_owned());
            };
            let Some(path) = args.positional.first() else {
                return Err("needs a file path (same text format as `import`)".to_owned());
            };
            let Some((raws, issues)) = read_raw_recipes(path) else {
                return Ok(ExitCode::FAILURE);
            };
            let ingested =
                ingest_into_wal(&dir, policy, segment_bytes, &raws, threads, &sink.metrics);
            sink.dump();
            let Some(stats) = ingested else {
                return Ok(ExitCode::FAILURE);
            };
            for failure in &stats.failures {
                eprintln!("tombstoned {failure}");
            }
            if issues.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{path}: {} malformed block(s) skipped — fix them and re-ingest",
                    issues.len()
                );
                ExitCode::FAILURE
            }
        }
        "replay" => {
            let threads = args.flag("threads", 0usize)?;
            let prefix = args.opt_flag::<usize>("prefix")?;
            let analyze = args.switch("analyze")?;
            let mc = mc_config(args, 2000)?;
            let sink = args.metrics()?;
            // Only the analysis reads these: without it they would
            // silently do nothing.
            if !analyze {
                if let Some(flag) = ["mc", "seed", "metrics"]
                    .iter()
                    .find(|f| args.flags.contains_key(**f))
                {
                    return Err(format!("--{flag} only applies to --analyze"));
                }
            }
            let Some(dir) = args.path("wal")? else {
                return Err("needs --wal DIR (the segmented replay log)".to_owned());
            };
            let db = culinaria::flavordb::curated::curated_db();
            let importer = Importer::from_flavor_db(&db);
            // Fsync off: replay only reads (recovery may still truncate
            // a torn tail, which does sync). A missing log is an error,
            // never created.
            let log = match SegmentedLog::open_existing(&dir, FsyncPolicy::Off, 0) {
                Ok(Some(log)) => log,
                Ok(None) => {
                    eprintln!("{dir}: no wal (MANIFEST missing)");
                    return Ok(ExitCode::FAILURE);
                }
                Err(e) => {
                    eprintln!("{dir}: cannot open wal: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            report_recovery(&dir, &log);
            let n = prefix.unwrap_or(log.len());
            let (store, stats) = match log.replay_prefix(&db, &importer, n, threads) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!(
                "replayed {n}/{} records: {} stored, {} tombstoned, \
                 {} lines resolved, {} unresolved",
                log.len(),
                stats.stored,
                stats.failures.len(),
                stats.lines_resolved,
                stats.lines_unresolved
            );
            if analyze {
                let analyses =
                    match try_analyze_world(&db, &store, &NullModel::ALL, &mc, &sink.metrics) {
                        Ok(a) => a,
                        Err(failure) => {
                            eprintln!("analysis failed: {failure}");
                            sink.dump();
                            return Ok(ExitCode::FAILURE);
                        }
                    };
                println!("{}", analyses_to_frame(&analyses).to_table_string(22));
                sink.dump();
            }
            ExitCode::SUCCESS
        }
        "report" => {
            let region = args.region()?;
            let cfg = world_config(args)?;
            let mc = mc_config(args, 20_000)?;
            let sink = args.metrics()?;
            let world = build_world(&cfg);
            let cuisine = world.recipes.cuisine(region);
            let analysis = match try_analyze_cuisine(
                &world.flavor,
                &cuisine,
                &NullModel::ALL,
                &mc,
                &sink.metrics,
            ) {
                Ok(Some(analysis)) => analysis,
                Ok(None) => {
                    eprintln!("{region}: no pairing-bearing recipes");
                    return Ok(ExitCode::FAILURE);
                }
                Err(failure) => {
                    eprintln!("report failed: {failure}");
                    sink.dump();
                    return Ok(ExitCode::FAILURE);
                }
            };
            println!(
                "{} — {} recipes, {} ingredients",
                region.name(),
                analysis.n_recipes,
                analysis.n_ingredients
            );
            println!("observed <Ns> = {:.3}", analysis.observed_mean);
            for c in &analysis.comparisons {
                println!(
                    "  vs {:22} z = {:+10.1}",
                    c.model.name(),
                    c.z.unwrap_or(f64::NAN)
                );
            }
            println!("verdict: {} food pairing", analysis.verdict());
            let positive = analysis.z_random().unwrap_or(0.0) > 0.0;
            println!("\ntop contributors:");
            for c in top_contributors(&world.flavor, &cuisine, 5, positive) {
                println!(
                    "  {:30} {:+7.2}%  ({} recipes)",
                    c.name, c.percent_change, c.n_recipes
                );
            }
            sink.dump();
            ExitCode::SUCCESS
        }
        "suggest" => {
            let region = args.region()?;
            let cfg = world_config(args)?;
            // N_s is a mean over ingredient pairs: no recipe below two.
            let size = args.count("size", 7, 2)?;
            // Uniform is the default objective; asking for both is a
            // contradiction, not a tie-break.
            let contrast = args.switch("contrast")?;
            if args.switch("uniform")? && contrast {
                return Err("--uniform and --contrast are mutually exclusive".to_owned());
            }
            let objective = if contrast {
                Objective::MinimizeSharing
            } else {
                Objective::MaximizeSharing
            };
            let world = build_world(&cfg);
            let cuisine = world.recipes.cuisine(region);
            let generator = RecipeGenerator::new(&world.flavor, &cuisine, 100);
            let Some(recipe) = generator.generate_recipe(size, objective, 0) else {
                eprintln!("{region}: pool too small for a {size}-ingredient recipe");
                return Ok(ExitCode::FAILURE);
            };
            println!(
                "generated {} recipe for {} (Ns = {:.2}):",
                match objective {
                    Objective::MinimizeSharing => "contrasting",
                    _ => "uniform",
                },
                region.name(),
                recipe.ns
            );
            for id in &recipe.ingredients {
                println!("  {}", generator.name(*id));
            }
            ExitCode::SUCCESS
        }
        "pairings" => {
            let region = args.region()?;
            let cfg = world_config(args)?;
            let top_k = args.flag("top", 10usize)?;
            let world = build_world(&cfg);
            let cuisine = world.recipes.cuisine(region);
            let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
            let pool = cache.pool();
            let candidates =
                novel_pairings(&cache, world.recipes.recipes().map(|r| r.ingredients()));
            println!(
                "novel pairings for {} (high overlap, low co-use):",
                region.name()
            );
            for c in candidates.iter().take(top_k) {
                // The pool comes straight from the overlap cache, so
                // both ids should be live; a mismatch means the cache
                // and database went out of sync — report, don't panic.
                let (a, b) = match (
                    world.flavor.ingredient(pool[c.i as usize]),
                    world.flavor.ingredient(pool[c.j as usize]),
                ) {
                    (Ok(a), Ok(b)) => (&a.name, &b.name),
                    (Err(e), _) | (_, Err(e)) => {
                        eprintln!("pairing table references a dead ingredient: {e}");
                        return Ok(ExitCode::FAILURE);
                    }
                };
                println!(
                    "  {:7.1}  {a} + {b}  (overlap {}, co-used {}×)",
                    c.novelty, c.overlap, c.cooc
                );
            }
            ExitCode::SUCCESS
        }
        "serve" => run_serve(&ServeOptions::from_args(args)?),
        _ => usage(),
    })
}

/// Decode the CFDB2/CRDB2 pair in `dir` into owned values. `None` =
/// failure (already reported).
fn decode_artifacts(dir: &str) -> Option<(FlavorDb, RecipeStore)> {
    let read = |name: &str| {
        let path = format!("{dir}/{name}");
        AlignedBytes::read_file(&path)
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
            .ok()
    };
    let (fbuf, rbuf) = (read("flavor.cfdb2")?, read("recipes.crdb2")?);
    let db = culinaria::flavordb::artifact::open(fbuf.as_slice())
        .map_err(|e| e.to_string())
        .and_then(|a| a.to_flavor_db().map_err(|e| e.to_string()))
        .map_err(|e| eprintln!("cannot decode {dir}/flavor.cfdb2: {e}"))
        .ok()?;
    let store = culinaria::recipedb::artifact::open(rbuf.as_slice())
        .map_err(|e| e.to_string())
        .and_then(|a| a.to_recipe_store().map_err(|e| e.to_string()))
        .map_err(|e| eprintln!("cannot decode {dir}/recipes.crdb2: {e}"))
        .ok()?;
    Some((db, store))
}

/// Fully validated `culinaria serve` options. Validation happens
/// *before* any data is opened, so a malformed flag fails fast with
/// exit code 2 and a message naming the flag.
#[derive(Debug)]
struct ServeOptions {
    data_dir: String,
    listener: Listener,
    cfg: ServeConfig,
    /// `Some(json)` when `--metrics[=json]` asked for an exit dump.
    metrics_dump: Option<bool>,
}

impl ServeOptions {
    fn from_args(args: &Args) -> Result<ServeOptions, String> {
        let mc = mc_config(args, 2000)?;
        let cfg = ServeConfig {
            threads: args.flag("threads", 0usize)?,
            batch_max: args.count("batch", 32, 1)?,
            cache_entries: args.flag("cache-entries", 4096usize)?,
            max_queue: args.count("max-queue", 256, 1)?,
            mc_recipes: mc.n_recipes,
            seed: mc.seed,
            read_timeout_ms: args.flag("read-timeout", 30_000u64)?,
            write_timeout_ms: args.flag("write-timeout", 30_000u64)?,
            idle_timeout_ms: args.flag("idle-timeout", 300_000u64)?,
            max_conns: args.flag("max-conns", 64usize)?,
        };
        let socket = match (args.switch("stdio")?, args.flags.get("socket")) {
            (true, Some(_)) => return Err("--stdio and --socket are mutually exclusive".to_owned()),
            (true, None) => None,
            (false, Some(path)) if !path.is_empty() => Some(path.clone()),
            (false, Some(_)) => return Err("--socket: needs a path".to_owned()),
            (false, None) => return Err("pick a transport: --stdio or --socket PATH".to_owned()),
        };
        let force_bind = args.switch("force-bind")?;
        let listener = match socket {
            Some(path) => Listener::Socket { path, force_bind },
            None => {
                // One stream, never armed with deadlines (see
                // deadline.rs): every socket-only flag would silently
                // do nothing.
                let socket_only = [
                    "force-bind",
                    "max-conns",
                    "read-timeout",
                    "write-timeout",
                    "idle-timeout",
                ];
                if let Some(flag) = socket_only.iter().find(|f| args.flags.contains_key(**f)) {
                    return Err(format!("--{flag} only applies to --socket"));
                }
                Listener::Stdio
            }
        };
        Ok(ServeOptions {
            data_dir: args
                .path("data")?
                .unwrap_or_else(|| "culinaria-data".to_owned()),
            listener,
            cfg,
            metrics_dump: args.metrics_mode()?,
        })
    }
}

/// Open the CFDB2/CRDB2 artifacts in `--data` zero-copy and serve them
/// until the transport drains.
fn run_serve(opts: &ServeOptions) -> ExitCode {
    let dir = &opts.data_dir;
    let fpath = format!("{dir}/flavor.cfdb2");
    let rpath = format!("{dir}/recipes.crdb2");
    if !(std::path::Path::new(&fpath).exists() && std::path::Path::new(&rpath).exists()) {
        eprintln!(
            "serve: {dir}: no dataset (flavor.cfdb2 + recipes.crdb2) — \
             run `culinaria generate --out {dir}` first"
        );
        return ExitCode::FAILURE;
    }
    let read = |path: &str| {
        AlignedBytes::read_file(path)
            .map_err(|e| eprintln!("serve: cannot read {path}: {e}"))
            .ok()
    };
    let Some(fbuf) = read(&fpath) else {
        return ExitCode::FAILURE;
    };
    let Some(rbuf) = read(&rpath) else {
        return ExitCode::FAILURE;
    };
    let flavor = match culinaria::flavordb::artifact::open(fbuf.as_slice()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve: corrupt flavor artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recipes = match culinaria::recipedb::artifact::open(rbuf.as_slice()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: corrupt recipe artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: opened v2 artifacts from {dir} (zero-copy)");
    // The METRICS endpoint serves live telemetry, so the server always
    // records; `--metrics[=json]` only controls the exit dump below.
    let server = Server::new(
        FlavorViewRef::Artifact(&flavor),
        RecipesViewRef::Artifact(&recipes),
        opts.cfg,
        Metrics::enabled(),
    );
    let code = match transport::run(&server, &opts.listener, &ShutdownFlag::new()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    };
    if let Some(json) = opts.metrics_dump {
        let metrics = server.metrics().clone();
        MetricsSink { metrics, json }.dump();
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Args {
        parse_args(&raw.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn boolean_flag_does_not_swallow_next_flag() {
        let args = parse(&["ita", "--uniform", "--size", "3"]);
        assert_eq!(args.positional, vec!["ita"]);
        assert_eq!(args.flags.get("uniform").map(String::as_str), Some(""));
        assert_eq!(args.flag("size", 7usize), Ok(3));
    }

    #[test]
    fn flag_orders_are_equivalent() {
        let a = parse(&["ita", "--size", "3", "--uniform"]);
        let b = parse(&["ita", "--uniform", "--size", "3"]);
        assert_eq!(a.flags, b.flags);
        assert_eq!(a.positional, b.positional);
    }

    #[test]
    fn trailing_boolean_flag_is_empty() {
        let args = parse(&["--contrast"]);
        assert_eq!(args.flags.get("contrast").map(String::as_str), Some(""));
        assert!(args.positional.is_empty());
    }

    #[test]
    fn valued_flags_and_positionals() {
        let args = parse(&["ita", "--scale", "0.5", "--seed", "7", "extra"]);
        assert_eq!(args.positional, vec!["ita", "extra"]);
        assert!((args.flag("scale", 0.1f64).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(args.flag("seed", 2018u64), Ok(7));
        // Missing flag falls back to the default.
        assert_eq!(args.flag("mc", 20_000usize), Ok(20_000));
    }

    #[test]
    fn equals_syntax_binds_inline() {
        let args = parse(&["analyze", "--scale=0.5", "--metrics=json", "--seed", "7"]);
        assert_eq!(args.positional, vec!["analyze"]);
        assert!((args.flag("scale", 0.1f64).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(args.flags.get("metrics").map(String::as_str), Some("json"));
        assert_eq!(args.flag("seed", 2018u64), Ok(7));
    }

    #[test]
    fn metrics_flag_selects_sink() {
        assert!(!parse(&["analyze"]).metrics().unwrap().metrics.is_enabled());
        let text = parse(&["analyze", "--metrics"]).metrics().unwrap();
        assert!(text.metrics.is_enabled() && !text.json);
        let json = parse(&["analyze", "--metrics=json"]).metrics().unwrap();
        assert!(parse(&["--metrics=xml"]).metrics().is_err());
        assert!(json.metrics.is_enabled() && json.json);
    }

    #[test]
    fn flag_checked_rejects_malformed_values() {
        let args = parse(&["--threads", "two"]);
        let err = args.flag("threads", 0usize).unwrap_err();
        assert!(err.contains("--threads") && err.contains("two"), "{err}");
        // Absent flag is still the default; well-formed value parses.
        assert_eq!(parse(&[]).flag("threads", 3usize), Ok(3));
        assert_eq!(parse(&["--threads", "8"]).flag("threads", 0usize), Ok(8));
        // A bare flag (empty value) is malformed for a numeric flag.
        assert!(parse(&["--threads"]).flag("threads", 0usize).is_err());
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let args = parse(&["r.txt", "--wal", "w", "--log", "l", "--zzz"]);
        assert_eq!(args.only(&["wal", "log", "zzz"]), Ok(()));
        let err = args.only(&["wal", "threads"]).unwrap_err();
        assert!(
            err.starts_with("--log:") && err.contains("--wal, --threads"),
            "{err}"
        );
        let err = parse(&["--x"]).only(&[]).unwrap_err();
        assert!(err.contains("--x") && err.contains("takes none"), "{err}");
        // Every command's table entry is unique and flag-free of `--`.
        for (i, (name, flags)) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|(n, _)| n != name), "{name} twice");
            assert!(
                flags.iter().all(|f| !f.starts_with('-')),
                "{name}: {flags:?}"
            );
        }
    }

    #[test]
    fn switches_take_no_value() {
        assert_eq!(parse(&["--analyze"]).switch("analyze"), Ok(true));
        assert_eq!(parse(&["--analyze", "true"]).switch("analyze"), Ok(true));
        assert_eq!(parse(&["--analyze=false"]).switch("analyze"), Ok(false));
        assert_eq!(parse(&[]).switch("analyze"), Ok(false));
        let err = parse(&["--contrast", "ITA"])
            .switch("contrast")
            .unwrap_err();
        assert!(err.contains("--contrast") && err.contains("ITA"), "{err}");
        assert!(parse(&["--out="]).path("out").is_err());
        assert_eq!(parse(&["--out", "d"]).path("out"), Ok(Some("d".to_owned())));
    }

    #[test]
    fn serve_options_reject_malformed_flags() {
        let serve_flags = COMMANDS.iter().find(|(n, _)| *n == "serve").unwrap().1;
        let reject = |raw: &[&str], needle: &str| {
            let args = parse(raw);
            let err = args
                .only(serve_flags)
                .and_then(|()| ServeOptions::from_args(&args))
                .unwrap_err();
            assert!(
                err.contains(needle),
                "args {raw:?}: error {err:?} lacks {needle:?}"
            );
        };
        reject(&["--stdio", "--cache-entries", "lots"], "--cache-entries");
        reject(&["--stdio", "--max-queue", "-4"], "--max-queue");
        reject(&["--stdio", "--max-queue", "0"], "--max-queue");
        reject(&["--stdio", "--batch", "0"], "--batch");
        reject(&["--stdio", "--mc", "1"], "--mc: must be at least 2");
        reject(&["--stdio", "--threads", "two"], "--threads");
        reject(&["--stdio", "--seed", "7.5"], "--seed");
        reject(&["--stdio", "--metrics=xml"], "--metrics");
        reject(
            &["--stdio", "--socket", "/tmp/x.sock"],
            "mutually exclusive",
        );
        reject(&["--socket"], "--socket");
        reject(&[], "--stdio or --socket");
        reject(&["--socket", "s", "--once"], "--once: unknown flag");
        reject(&["--stdio", "--once"], "--once: unknown flag");
        // Socket-only flags are refused on stdio, even with valid values.
        for (flag, value) in [
            ("--force-bind", None),
            ("--max-conns", Some("3")),
            ("--read-timeout", Some("100")),
            ("--write-timeout", Some("100")),
            ("--idle-timeout", Some("100")),
        ] {
            let mut raw = vec!["--stdio", flag];
            raw.extend(value);
            reject(&raw, &format!("{flag} only applies to --socket"));
        }
    }

    #[test]
    fn serve_options_accept_a_full_flag_set() {
        let args = parse(&[
            "--socket",
            "/tmp/culinaria.sock",
            "--data",
            "d",
            "--threads",
            "4",
            "--batch",
            "16",
            "--cache-entries",
            "128",
            "--max-queue",
            "64",
            "--mc",
            "500",
            "--seed",
            "9",
            "--force-bind",
            "--metrics=json",
        ]);
        let opts = ServeOptions::from_args(&args).expect("valid flags");
        assert_eq!(opts.data_dir, "d");
        assert_eq!(
            opts.listener,
            Listener::Socket {
                path: "/tmp/culinaria.sock".to_owned(),
                force_bind: true
            }
        );
        assert_eq!(opts.cfg.threads, 4);
        assert_eq!(opts.cfg.batch_max, 16);
        assert_eq!(opts.cfg.cache_entries, 128);
        assert_eq!(opts.cfg.max_queue, 64);
        assert_eq!(opts.cfg.mc_recipes, 500);
        assert_eq!(opts.cfg.seed, 9);
        assert_eq!(opts.metrics_dump, Some(true));
        // Defaults: stdio transport, no dump, ServeConfig::default() knobs.
        let opts = ServeOptions::from_args(&parse(&["--stdio"])).expect("valid flags");
        assert_eq!(opts.listener, Listener::Stdio);
        assert_eq!(opts.metrics_dump, None);
        assert_eq!(opts.cfg.cache_entries, ServeConfig::default().cache_entries);
    }

    #[test]
    fn raw_recipe_format_parses() {
        let text = "# comment\nPesto Pasta | ITA\n2 cups basil\n1/2 cup olive oil\n\n\
                    Miso Soup | JPN\n1 tbsp miso paste\n";
        let (raws, issues) = parse_raw_recipes(text);
        assert!(issues.is_empty(), "{issues:?}");
        assert_eq!(raws.len(), 2);
        assert_eq!(raws[0].name, "Pesto Pasta");
        assert_eq!(raws[0].ingredient_lines.len(), 2);
        assert_eq!(raws[1].region.to_string(), "JPN");
        assert_eq!(raws[1].source, Source::Synthetic);
    }

    #[test]
    fn raw_recipe_format_reports_bad_headers_with_line_numbers() {
        let (raws, issues) = parse_raw_recipes("No Region Here\nbasil\n");
        assert!(raws.is_empty());
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].line, 1);
        assert!(issues[0].message.contains("REGION_CODE"), "{issues:?}");

        let (raws, issues) = parse_raw_recipes("Dish | NOPE\nbasil\n");
        assert!(raws.is_empty());
        assert_eq!(issues[0].line, 1);
        assert!(issues[0].message.contains("NOPE"), "{issues:?}");
    }

    #[test]
    fn malformed_blocks_do_not_abort_the_parse() {
        // Good, bad-region, headerless, good — every issue is reported
        // with its line number and both good recipes survive.
        let text = "Pesto | ITA\nbasil\n\n\
                    Dish | NOPE\nbasil\n\n\
                    # comment\nJust Ingredients Here\n\n\
                    Miso Soup | JPN\nmiso paste\n";
        let (raws, issues) = parse_raw_recipes(text);
        assert_eq!(raws.len(), 2);
        assert_eq!(raws[0].name, "Pesto");
        assert_eq!(raws[1].name, "Miso Soup");
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].line, 4);
        assert_eq!(issues[1].line, 8);
    }
}
