//! What every `bench_*` binary shares: one timing statistic ([`Stat`]
//! from [`time_ms`]), one machine descriptor ([`summary`]) and one
//! JSON writer ([`Obj::write`]). A binary asserts its paths agree,
//! then times them and writes `summary(…).set(…).stat(…).write(…)`.

use std::hint::black_box;
use std::time::Instant;

/// Order statistics over the samples of one timed path.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat(Vec<f64>);

impl Stat {
    /// The statistic over `samples` (at least one).
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Stat {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(!sorted.is_empty(), "a statistic needs at least one sample");
        sorted.sort_by(f64::total_cmp);
        Stat(sorted)
    }

    /// The smallest sample: the steady-state cost, robust to
    /// scheduler noise on a shared box.
    pub fn min(&self) -> f64 {
        self.0[0]
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        (self.0[(n - 1) / 2] + self.0[n / 2]) / 2.0
    }

    /// Median absolute deviation from the median.
    pub fn mad(&self) -> f64 {
        let median = self.median();
        Stat::of(self.0.iter().map(|x| (x - median).abs())).median()
    }

    /// Nearest-rank `q`-quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// Every sample divided by `n` (per iteration when a sample ran `n`).
    pub fn per(&self, n: usize) -> Stat {
        Stat(self.0.iter().map(|x| x / n as f64).collect())
    }
}

/// Time each of `paths` `reps` times, interleaved so that no path
/// monopolizes a quiet (or noisy) window, and return the milliseconds
/// per call of each. Results pass through [`black_box`] and are
/// dropped after the clock stops.
pub fn time_ms<R, const N: usize>(reps: usize, mut paths: [&mut dyn FnMut() -> R; N]) -> [Stat; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..reps.max(1) {
        for (path, out) in paths.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            let result = black_box(path());
            out.push(t.elapsed().as_secs_f64() * 1e3);
            drop(result);
        }
    }
    samples.map(Stat::of)
}

/// The thread-scaling sweep: at 1, 2, 4 and 8 threads, `check` one
/// untimed `run`, then time `run`. One row per thread count.
pub fn scaling<T>(reps: usize, run: impl Fn(usize) -> T, check: impl Fn(usize, T)) -> Vec<Obj> {
    let mut wall_at_1 = f64::NAN;
    let mut rows = Vec::new();
    for threads in [1, 2, 4, 8] {
        check(threads, run(threads));
        let [wall] = time_ms(reps, [&mut || run(threads)]);
        if threads == 1 {
            wall_at_1 = wall.min();
        }
        let speedup = wall_at_1 / wall.min();
        eprintln!(
            "scaling: {threads} threads -> {:.0} ms ({speedup:.2}x vs 1 thread)",
            wall.min()
        );
        rows.push(
            Obj::default()
                .set("threads", threads)
                .stat("wall_ms", &wall)
                .set("speedup_vs_1", speedup)
                .set("parity", "bit-identical"),
        );
    }
    rows
}

/// How a binary was run, for [`summary`].
pub struct Run {
    /// Master seed.
    pub seed: u64,
    /// Recipe-count multiplier of the generated world, if one is built.
    pub scale: Option<f64>,
    /// Requested worker threads (0 = available parallelism).
    pub threads: usize,
    /// Timed repeats per path.
    pub reps: usize,
}

/// The summary of benchmark `bench`, opened with the machine and run
/// it was measured on.
pub fn summary(bench: &str, run: Run) -> Obj {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let head = git(&["rev-parse", "--short", "HEAD"]);
    let status = git(&["status", "--porcelain", "--", "crates", "src", "Cargo.*"]);
    #[cfg(target_arch = "x86_64")]
    let popcnt = std::arch::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    let popcnt = false;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let summary = Obj::default()
        .set("bench", bench)
        .set(
            "commit",
            commit_label(head.as_deref(), status.as_deref().unwrap_or("")),
        )
        .set("available_cores", cores)
        .set(
            "n_threads_effective",
            culinaria_stats::pool::effective_threads(run.threads),
        )
        .set("popcnt_dispatch", popcnt)
        .set("seed", run.seed);
    match run.scale {
        Some(scale) => summary.set("recipe_scale", scale),
        None => summary,
    }
    .set("time_reps", run.reps)
}

/// The `commit` field of a summary: the short hash `git rev-parse`
/// printed (`unknown` without one), plus `-dirty` when the
/// `git status --porcelain` lines for the measured sources are not
/// empty — a number measured on uncommitted edits never names a
/// commit that did not produce it.
pub fn commit_label(head: Option<&str>, porcelain: &str) -> String {
    let hash = head.map_or("unknown", str::trim);
    if porcelain.trim().is_empty() {
        hash.to_owned()
    } else {
        format!("{hash}-dirty")
    }
}

/// The JSON text of one summary value.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(String);

/// A JSON object whose keys keep their insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// Append `key: value`.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Append a timing: `key` holds its min, `key_median` and
    /// `key_mad` its spread.
    pub fn stat(self, key: &str, stat: &Stat) -> Obj {
        self.set(key, stat.min())
            .set(&format!("{key}_median"), stat.median())
            .set(&format!("{key}_mad"), stat.mad())
    }

    fn render(&self, [open, sep, close]: [&str; 3]) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{k:?}: {}", v.0))
            .collect();
        format!("{{{open}{}{close}}}", fields.join(sep))
    }

    /// Write the summary, one key per line, to `CULINARIA_BENCH_OUT`
    /// (default `default_path`) and echo it to stdout.
    pub fn write(self, default_path: &str) {
        let path: String = crate::env_or("CULINARIA_BENCH_OUT", default_path.to_owned());
        let json = self.render(["\n  ", ",\n  ", "\n"]) + "\n";
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{json}");
        eprintln!("wrote {path}");
    }
}

macro_rules! json_from {
    ($($t:ty: $v:ident => $text:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                Json($text)
            }
        }
    )*};
}

json_from! {
    u64: n => n.to_string();
    usize: n => n.to_string();
    bool: b => b.to_string();
    &str: s => format!("{s:?}");
    String: s => format!("{s:?}");
    Obj: o => o.render([" ", ", ", " "]);
    // Four significant digits, or fewer when that is exact.
    f64: x => {
        let magnitude = if x == 0.0 { 0 } else { x.abs().log10().floor() as i32 };
        let rounded = format!("{x:.*}", (3 - magnitude).clamp(0, 6) as usize);
        match x.to_string() {
            _ if !x.is_finite() => "null".to_owned(),
            exact if exact.len() <= rounded.len() => exact,
            _ => rounded,
        }
    };
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or_else(|| Json("null".to_owned()), Into::into)
    }
}

/// An array; an array of objects puts one object per line.
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        let items: Vec<String> = items.into_iter().map(|v| v.into().0).collect();
        let objects = items.first().is_some_and(|v| v.starts_with('{'));
        let [open, sep, close] = if objects {
            ["\n    ", ",\n    ", "\n  "]
        } else {
            ["", ", ", ""]
        };
        Json(format!("[{open}{}{close}]", items.join(sep)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_reports_min_median_mad_and_quantiles() {
        let s = Stat::of([5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.min(), s.median(), s.mad()), (1.0, 3.0, 1.0));
        assert_eq!((s.quantile(0.5), s.quantile(0.99)), (3.0, 5.0));
        assert_eq!(Stat::of([4.0, 1.0, 2.0, 3.0]).per(2).median(), 1.25);
        let (mut a, mut b) = (0, 0);
        let [sa, _] = time_ms(3, [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b, sa.0.len()), (3, 3, 3));
    }

    #[test]
    fn commit_label_marks_uncommitted_sources() {
        assert_eq!(commit_label(Some("1a2b3c4\n"), ""), "1a2b3c4");
        assert_eq!(commit_label(Some("1a2b3c4\n"), "\n"), "1a2b3c4");
        assert_eq!(
            commit_label(Some("1a2b3c4\n"), " M crates/core/src/lib.rs\n"),
            "1a2b3c4-dirty"
        );
        assert_eq!(commit_label(None, ""), "unknown");
        assert_eq!(commit_label(None, "?? src/new.rs\n"), "unknown-dirty");
    }

    #[test]
    fn summaries_render_one_key_per_line() {
        let row = Obj::default().set("threads", 2usize).set("ok", true);
        let json = Obj::default()
            .set("bench", "x")
            .stat("open_ms", &Stat::of([0.53714, 0.6, 0.7]))
            .set("ratio", 27.43)
            .set("none", None::<usize>)
            .set("nan", f64::NAN)
            .set("counts", vec![1usize, 2])
            .set("rows", vec![row])
            .render(["\n  ", ",\n  ", "\n"]);
        assert_eq!(
            json,
            "{\n  \"bench\": \"x\",\n  \"open_ms\": 0.5371,\n  \"open_ms_median\": 0.6,\n  \
             \"open_ms_mad\": 0.06286,\n  \"ratio\": 27.43,\n  \"none\": null,\n  \
             \"nan\": null,\n  \"counts\": [1, 2],\n  \
             \"rows\": [\n    { \"threads\": 2, \"ok\": true }\n  ]\n}"
        );
    }
}
