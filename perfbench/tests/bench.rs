//! The benchmark's own tests: a tiny-scale smoke run of every workload
//! through the real command, input determinism, and a negative test of
//! the served-reply check.

use std::os::unix::net::UnixStream;
use std::process::Command;

use culinaria::analysis::{FlavorViewRef, RecipesViewRef};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::curated::curated_db;
use culinaria::obs::Metrics;
use culinaria::serve::{ServeConfig, Server};
use perfbench::inputs::{self, ServeWorld};
use perfbench::workloads::{check_replies, oracle};
use perfbench::{load, Report, WORKLOADS};

fn tiny_world(seed: u64) -> World {
    let mut cfg = WorldConfig::paper();
    cfg.recipe_scale = 0.02;
    cfg.seed = seed;
    generate_world(&cfg)
}

/// Run the benchmark command; the parsed last stdout line.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "perfbench {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_owned()
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    for w in WORKLOADS {
        let last = bench(&[
            "--workload",
            w,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--scale",
            "0.02",
            "--mc",
            "500",
        ]);
        assert!(last.starts_with("{\"correct\": true,"), "{w}: {last}");
        assert!(last.contains("\"failed\": 0,"), "{w}: {last}");
        let serve_only: &[&str] = if w.starts_with("serve-") {
            &["p50_ms", "p99_ms", "max_rps"]
        } else {
            &[]
        };
        for m in ["setup_s", "wall_s", "rss_mb"].iter().chain(serve_only) {
            assert!(
                last.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}: {last}"
            );
        }
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let last = bench(&[
        "--workload",
        "serve-cold",
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        "1",
        "--scale",
        "0.02",
        "--mc",
        "500",
    ]);
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    for (name, unit, _) in perfbench::trace::LAYER_METRICS {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")) && last.contains(unit),
            "missing {name}: {last}"
        );
    }
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    let db = curated_db();
    let corpus = |seed| {
        inputs::ingest_batches(&db, seed, 3, 20)
            .iter()
            .map(|b| inputs::render_recipes(b))
            .collect::<String>()
    };
    assert_eq!(corpus(1), corpus(1));
    assert_ne!(corpus(1), corpus(2));

    let requests = |seed| {
        let world = tiny_world(seed);
        let sw = ServeWorld::from_views(
            FlavorViewRef::Owned(&world.flavor),
            RecipesViewRef::Owned(&world.recipes),
        );
        let mut all = sw.hot_requests(seed).take(300);
        all.extend(sw.cold_requests(seed).take(300));
        all.extend(sw.warmup());
        all.join("\n")
    };
    assert_eq!(requests(1), requests(1));
    assert_ne!(requests(1), requests(2));
}

#[test]
fn a_corrupted_expected_reply_counts_as_failed() {
    let world = tiny_world(3);
    let (flavor, recipes) = (
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&world.recipes),
    );
    let sw = ServeWorld::from_views(flavor, recipes);
    let reqs = sw.cold_requests(3).take(200);
    let served = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let run = std::thread::scope(|scope| {
        let reader = theirs.try_clone().expect("clone");
        let served = &served;
        let srv = scope.spawn(move || served.serve_connection(reader, theirs));
        let run = load::closed_loop(&ours, &reqs, 16).expect("load");
        ours.shutdown(std::net::Shutdown::Both).expect("shutdown");
        srv.join().expect("server thread").expect("serve");
        run
    });

    let reference = Server::new(flavor, recipes, ServeConfig::default(), Metrics::enabled());
    let mut good = oracle(&reference);
    let mut r = Report::new();
    check_replies(&mut r, "served", &reqs, &run.replies, true, &mut good);
    assert!(
        r.correct && r.failed == 0 && r.fail_frac() == 0.0,
        "{:?}",
        r.notes
    );

    let target = reqs[17].clone();
    let mut corrupted = |req: &str| {
        let want = good(req);
        if req == target {
            want.replacen("OK", "OK corrupted", 1)
        } else {
            want
        }
    };
    let mut r = Report::new();
    check_replies(&mut r, "served", &reqs, &run.replies, true, &mut corrupted);
    assert!(!r.correct);
    assert_eq!(r.failed, 1);
    assert!(r.fail_frac() > 0.0);
}
