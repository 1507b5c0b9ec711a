//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//!  --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the `culinaria` binary from the repository, runs one workload
//! against it (or, with `--trace 1`, the traced per-layer run), and
//! prints the result as one JSON object on the last line of stdout.
//! `--scale X` and `--mc N` shrink the dataset for smoke runs.

use std::process::ExitCode;

use perfbench::{build_culinaria, repo_root, trace, workloads, Opts, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    mc: usize,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    fn num<T: std::str::FromStr>(
        v: Option<&str>,
        name: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match (v, default) {
            (Some(v), _) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("{name} is required")),
        }
    }
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace: u8 = num(get("--trace"), "--trace", Some(0))?;
    Ok(Args {
        workload,
        seed: num(get("--seed"), "--seed", None)?,
        seconds: num(get("--seconds"), "--seconds", Some(10.0))?,
        trace: trace == 1,
        scale: num(get("--scale"), "--scale", Some(1.0))?,
        mc: num(get("--mc"), "--mc", Some(100_000))?,
    })
}

/// Cores this process may use and whether the CPU has `popcnt` (the
/// overlap kernels dispatch on it at run time).
fn machine() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let popcnt = std::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    let popcnt = false;
    format!(
        "{cores} core(s), popcnt {}",
        if popcnt { "yes" } else { "no" }
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let bin = match build_culinaria(&root) {
        Ok(bin) => bin,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        mc: args.mc,
        bin,
    };
    // Each run works in a fresh directory inside the checkout (unix
    // socket paths must stay short, so the run's files are addressed
    // relative to it) and removes it afterwards.
    let work = root.join(".perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let out_dir = root.join(".perfbench-out");
    let result = std::fs::create_dir_all(&work)
        .and_then(|()| std::env::set_current_dir(&work))
        .and_then(|()| {
            if args.trace {
                trace::traced(&args.workload, &opts, &out_dir)
            } else {
                workloads::run(&args.workload, &opts)
            }
        });
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(root.join(".perfbench-work"));
    match result {
        Ok(report) => {
            println!("# machine: {}", machine());
            for line in &report.notes {
                println!("# {line}");
            }
            for m in &report.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
