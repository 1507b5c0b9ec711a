#![warn(missing_docs)]

//! # culinaria-bench
//!
//! Reproduction harnesses (one binary per paper table/figure, under
//! `src/bin/`), in-process micro timings with their parity asserts
//! (the `bench_*` binaries, measured through [`harness`]) and
//! Criterion micro-benchmarks (under `benches/`). End-to-end timing
//! of the `culinaria` binary lives in `perfbench/`.
//!
//! Every `repro_*` harness regenerates one artifact of the paper's
//! evaluation:
//!
//! | binary            | paper artifact |
//! |-------------------|----------------|
//! | `repro_table1`    | Table 1 — recipes & ingredients per region |
//! | `repro_fig2`      | Fig 2 — category-composition heatmap |
//! | `repro_fig3a`     | Fig 3a — recipe-size distribution |
//! | `repro_fig3b`     | Fig 3b — ingredient rank-frequency scaling |
//! | `repro_fig4`      | Fig 4 — z-scores vs the four null models |
//! | `repro_fig5`      | Fig 5 — top-3 contributing ingredients |
//! | `repro_ntuples`   | §V extension — triple/quadruple sharing |
//! | `repro_evolution` | paper ref 10 — copy-mutate evolution model |
//! | `repro_robustness`| §V extension — subsampling / profile dilution |
//! | `repro_cooking`   | §V extension — cooking flavor transformation |
//! | `repro_network`   | supplementary — Ahn-style flavor network |
//! | `repro_similarity`| supplementary — fingerprints + clustering |
//! | `repro_classifier`| supplementary — cuisine classification |
//! | `repro_ablation`  | DESIGN.md §5 — generator design ablation |
//!
//! Every `bench_*` binary asserts its optimized path against a frozen
//! or cold reference, then times both into one `BENCH_*.json` through
//! [`harness`]:
//!
//! | binary           | asserted, then timed |
//! |------------------|----------------------|
//! | `bench_kernel`   | 4-lane AND+popcount vs the scalar walk |
//! | `bench_alias`    | trie alias resolver vs the legacy matcher; batch vs serial import |
//! | `bench_fig4`     | `analyze_world` vs the pre-optimization path; thread scaling |
//! | `bench_ntuple`   | k-way bitset kernel vs the frozen n-tuple walker; thread scaling |
//! | `bench_artifact` | zero-copy artifact open vs owned decode; owned ≡ borrowed analysis |
//! | `bench_stream`   | `StreamState` vs cold rebuilds; `ingest_swap`; WAL per fsync policy |
//!
//! ## Environment knobs
//!
//! * `CULINARIA_SCALE` — recipe-count multiplier on Table 1
//!   (default 1.0 = full paper scale);
//! * `CULINARIA_MC` — Monte-Carlo recipes per null model
//!   (default 100000, the paper's number);
//! * `CULINARIA_SEED` — master seed (default 2018);
//! * `CULINARIA_METRICS` — `text` or `json`: dump the observability
//!   registry (see `culinaria-obs`) on stderr when the harness exits.
//!   `--metrics[=text|json]` on the command line takes precedence over
//!   the variable.
//!
//! As in the `culinaria` CLI, a knob that is set but does not parse,
//! or any argument but `--metrics[=text|json]`, exits 2 naming it.

use std::str::FromStr;

use culinaria_core::MonteCarloConfig;
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_obs::Metrics;

pub mod harness;

/// Print `error: {msg}` and exit 2, the CLI's status for a bad flag.
fn refuse(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Parse the raw value of the knob `name` (`None` when unset); the
/// error names the knob.
fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    let parse = |v: &str| {
        v.parse()
            .map_err(|_| format!("{name}={v:?} does not parse"))
    };
    raw.map(parse).transpose()
}

fn env_var<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var_os(name).map(|v| {
        v.into_string()
            .unwrap_or_else(|v| refuse(format!("{name}={v:?} is not UTF-8")))
    });
    parse_knob(name, raw.as_deref()).unwrap_or_else(|e| refuse(e))
}

/// Read the environment variable `name`, or `default` when it is
/// unset; exit 2 when it is set but does not parse. Every knob goes
/// through here.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    env_var(name).unwrap_or(default)
}

/// A comma-separated list of counts, e.g. `1,8,64`.
#[derive(Debug, Clone, PartialEq)]
pub struct List(pub Vec<usize>);

impl FromStr for List {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<List, Self::Err> {
        s.split(',')
            .map(|t| t.trim().parse())
            .collect::<Result<_, _>>()
            .map(List)
    }
}

/// How a metrics dump renders: `text` or `json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Aligned text.
    Text,
    /// One JSON object.
    Json,
}

impl FromStr for MetricsFormat {
    type Err = ();

    fn from_str(s: &str) -> Result<MetricsFormat, ()> {
        match s {
            "text" => Ok(MetricsFormat::Text),
            "json" => Ok(MetricsFormat::Json),
            _ => Err(()),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<MetricsFormat>, String> {
    let metrics = |arg: &String| match arg.strip_prefix("--metrics") {
        Some("") => Some(MetricsFormat::Text),
        rest => rest?.strip_prefix('=')?.parse().ok(),
    };
    let refused =
        |arg: &String| format!("unexpected argument {arg:?} (only --metrics[=text|json])");
    args.iter().try_fold(None, |_, arg| {
        metrics(arg).map(Some).ok_or_else(|| refused(arg))
    })
}

/// Check the command line: `--metrics[=text|json]` (the last one
/// wins) and nothing else, or exit 2 naming the argument. Every binary
/// calls this, or [`metrics_from_env`], first.
pub fn check_args() -> Option<MetricsFormat> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args).unwrap_or_else(|e| refuse(e))
}

/// The world configuration selected by the environment (see the crate
/// docs for the knobs), at `default_scale` unless `CULINARIA_SCALE` is
/// set.
pub fn world_config_from_env(default_scale: f64) -> WorldConfig {
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = env_or("CULINARIA_SCALE", default_scale);
    cfg.seed = env_or("CULINARIA_SEED", 2018);
    cfg
}

/// Generate the world selected by the environment (full paper scale
/// by default), logging timings.
pub fn world_from_env() -> World {
    generate_logged(&world_config_from_env(1.0))
}

/// Generate the world of `cfg`, logging timings.
pub fn generate_logged(cfg: &WorldConfig) -> World {
    eprintln!(
        "generating world: scale {}, seed {}, {} ingredients / {} molecules",
        cfg.recipe_scale, cfg.seed, cfg.flavor.n_ingredients, cfg.flavor.n_molecules
    );
    let t = std::time::Instant::now();
    let world = generate_world(cfg);
    eprintln!(
        "world ready: {} recipes in {:.1?}",
        world.recipes.n_recipes(),
        t.elapsed()
    );
    world
}

/// The Monte-Carlo configuration selected by the environment.
pub fn mc_config_from_env() -> MonteCarloConfig {
    MonteCarloConfig {
        n_recipes: env_or("CULINARIA_MC", 100_000),
        seed: env_or("CULINARIA_SEED", 2018),
        n_threads: 0,
    }
}

/// Print a harness section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// A [`Metrics`] handle plus the rendering format the harness was asked
/// for. Build one with [`metrics_from_env`]; pass `.metrics` to the
/// engine entry points and call [`MetricsSink::dump`] at exit.
pub struct MetricsSink {
    /// The handle the instrumented pipeline records into. Disabled
    /// (every operation a no-op) unless metrics were requested.
    pub metrics: Metrics,
    /// Render as one JSON object instead of aligned text.
    pub json: bool,
}

impl MetricsSink {
    /// Render the registry to stderr (stdout stays the harness's
    /// tables). No-op when metrics were not requested.
    pub fn dump(&self) {
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

/// The metrics sink selected by `--metrics[=text|json]` on the
/// command line or, failing that, the `CULINARIA_METRICS` environment
/// variable. Returns a disabled (zero-cost) sink when neither asks for
/// metrics. Checks the command line first (see [`check_args`]).
pub fn metrics_from_env() -> MetricsSink {
    let format = check_args().or_else(|| env_var("CULINARIA_METRICS"));
    MetricsSink {
        metrics: format.map_or_else(Metrics::disabled, |_| Metrics::enabled()),
        json: format == Some(MetricsFormat::Json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Tolerate exported overrides by only checking types/ranges.
        let cfg = world_config_from_env(1.0);
        assert!(cfg.recipe_scale > 0.0);
        let mc = mc_config_from_env();
        assert!(mc.n_recipes > 0);
    }

    #[test]
    fn knobs_parse_or_name_themselves() {
        assert_eq!(parse_knob::<f64>("CULINARIA_SCALE", None), Ok(None));
        assert_eq!(parse_knob("CULINARIA_SCALE", Some("0.01")), Ok(Some(0.01)));
        for bad in ["0,01", "", " 1"] {
            let err = parse_knob::<f64>("CULINARIA_SCALE", Some(bad)).unwrap_err();
            assert!(err.contains("CULINARIA_SCALE"), "{err}");
        }
        let list = parse_knob("CULINARIA_STREAM_BATCH", Some("1, 8,64"));
        assert_eq!(list, Ok(Some(List(vec![1, 8, 64]))));
        for bad in ["1,,8", "1;8", "-1", ""] {
            assert!(parse_knob::<List>("CULINARIA_STREAM_BATCH", Some(bad)).is_err());
        }
        let json = parse_knob("CULINARIA_METRICS", Some("json"));
        assert_eq!(json, Ok(Some(MetricsFormat::Json)));
        assert!(parse_knob::<MetricsFormat>("CULINARIA_METRICS", Some("jsn")).is_err());
    }

    #[test]
    fn only_the_metrics_flag_is_accepted() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&[]), Ok(None));
        let last_wins = parse_args(&args(&["--metrics=json", "--metrics"]));
        assert_eq!(last_wins, Ok(Some(MetricsFormat::Text)));
        let json = parse_args(&args(&["--metrics=text", "--metrics=json"]));
        assert_eq!(json, Ok(Some(MetricsFormat::Json)));
        for (bad, named) in [
            (&["--scale", "0.5"][..], "\"--scale\""),
            (&["--metrics=jsn"], "\"--metrics=jsn\""),
            (&["--metricsjson"], "\"--metricsjson\""),
            (&["--metrics", "x"], "\"x\""),
        ] {
            let err = parse_args(&args(bad)).unwrap_err();
            assert!(err.contains(named), "{err}");
        }
    }
}
