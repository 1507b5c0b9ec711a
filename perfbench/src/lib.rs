//! End-to-end benchmark of the `culinaria` binary.
//!
//! Four workloads start the built binary as a child process and check
//! every output against the library run in-process on the same inputs
//! (see `README.md` in this directory for why each workload exists and
//! which layer each metric attributes). A separate traced run replays
//! the same generated inputs through each layer's public functions and
//! reports the per-layer split.

pub mod child;
pub mod inputs;
pub mod load;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: this package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

/// `cargo build --release --bin culinaria` in the repository, returning
/// the binary's path.
pub fn build_culinaria(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "culinaria"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building culinaria failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|d| root.join(d))
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("culinaria");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// The workloads, by the names the command line and `BENCHMARK.json`
/// use.
pub const WORKLOADS: [&str; 4] = ["fig4-paper", "serve-hot", "serve-cold", "ingest-append"];

/// Everything a run needs besides the workload name.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured phase of a run lasts.
    pub seconds: f64,
    /// Dataset scale (1.0 = the paper's 45,772 recipes).
    pub scale: f64,
    /// Monte-Carlo recipes per null model and cuisine (fig4-paper).
    pub mc: usize,
    /// The built `culinaria` binary.
    pub bin: PathBuf,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (program calls and requests).
    pub attempted: u64,
    /// Operations failed: non-zero exit, BUSY, ERR, wrong reply.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report whose checks have all passed so far.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Failed ÷ attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
