//! Integration tests of the `culinaria` command-line interface.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn regions_lists_all_22() {
    let (ok, stdout, _) = run(&["regions"]);
    assert!(ok);
    for code in ["AFR", "ITA", "USA", "KOR", "SCND"] {
        assert!(stdout.contains(code), "{code} missing");
    }
    assert_eq!(stdout.lines().count(), 23); // header + 22 rows
    assert!(stdout.contains("contrasting"));
}

#[test]
fn no_command_shows_usage() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn report_requires_valid_region() {
    let (ok, _, stderr) = run(&["report", "ATLANTIS"]);
    assert!(!ok);
    assert!(stderr.contains("region code"));
}

#[test]
fn report_produces_verdict() {
    let (ok, stdout, _) = run(&["report", "JPN", "--scale", "0.02", "--mc", "2000"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("Japan"));
    assert!(stdout.contains("verdict:"));
    assert!(stdout.contains("top contributors"));
}

#[test]
fn analyze_emits_agreement_line() {
    let (ok, stdout, _) = run(&["analyze", "--scale", "0.01", "--mc", "1500"]);
    assert!(ok);
    assert!(stdout.contains("z_random"));
    assert!(stdout.contains("pairing-sign agreement with the paper:"));
}

#[test]
fn generate_writes_snapshots() {
    let dir = std::env::temp_dir().join(format!("culinaria-cli-test-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", dir_str]);
    assert!(ok, "stdout: {stdout}");
    for file in ["flavor.cfdb2", "recipes.crdb2", "recipes.csv"] {
        let path = dir.join(file);
        assert!(path.exists(), "{file} missing");
        assert!(
            path.metadata().expect("stat").len() > 100,
            "{file} too small"
        );
    }
    // The v2 pair and the CSV are the whole dataset.
    for file in ["flavor.cfdb", "recipes.crdb"] {
        assert!(!dir.join(file).exists(), "{file} still written");
    }
    // Artifacts decode to owned databases.
    let flavor_bytes =
        culinaria::flavordb::AlignedBytes::read_file(dir.join("flavor.cfdb2")).expect("readable");
    let db = culinaria::flavordb::artifact::open(flavor_bytes.as_slice())
        .expect("opens")
        .to_flavor_db()
        .expect("decodes");
    assert!(db.n_ingredients() > 100);
    let recipe_bytes =
        culinaria::flavordb::AlignedBytes::read_file(dir.join("recipes.crdb2")).expect("readable");
    let store = culinaria::recipedb::artifact::open(recipe_bytes.as_slice())
        .expect("opens")
        .to_recipe_store()
        .expect("decodes");
    assert!(store.n_recipes() > 100);

    // migrate-artifact re-emits the pair with overlap sections attached;
    // the recipe artifact is unchanged.
    let (ok, stdout, stderr) = run(&["migrate-artifact", "--in", dir_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("flavor.cfdb2"), "stdout: {stdout}");
    let migrated =
        culinaria::flavordb::AlignedBytes::read_file(dir.join("flavor.cfdb2")).expect("readable");
    let view = culinaria::flavordb::artifact::open(migrated.as_slice()).expect("opens");
    assert!(view.overlap_labels().count() > 0, "no overlap sections");
    assert_eq!(
        std::fs::read(dir.join("recipes.crdb2")).expect("readable"),
        recipe_bytes.as_slice()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_malformed_flags_before_touching_data() {
    // Each case must fail fast (exit 2, no dataset needed) and name
    // the offending flag on stderr.
    for (args, needle) in [
        (
            &["serve", "--stdio", "--cache-entries", "lots"][..],
            "--cache-entries",
        ),
        (
            &["serve", "--stdio", "--max-queue", "-4"][..],
            "--max-queue",
        ),
        (&["serve", "--stdio", "--threads", "two"][..], "--threads"),
        (&["serve", "--stdio", "--metrics=xml"][..], "--metrics"),
        (&["serve"][..], "--stdio or --socket"),
        (
            &["serve", "--stdio", "--socket", "/tmp/x.sock"][..],
            "mutually exclusive",
        ),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "args {args:?} should be rejected");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
    }
}

#[test]
fn serve_refuses_to_start_without_a_dataset() {
    let dir = std::env::temp_dir().join(format!("culinaria-serve-nodata-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let (ok, _, stderr) = run(&["serve", "--stdio", "--data", dir_str]);
    assert!(!ok);
    assert!(stderr.contains("culinaria generate"), "stderr: {stderr}");
}

#[test]
fn serve_stdio_answers_framed_queries_over_artifacts() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("culinaria-serve-stdio-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path").to_owned();
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", &dir_str]);
    assert!(ok, "generate failed: {stdout}");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args([
            "serve",
            "--stdio",
            "--data",
            &dir_str,
            "--mc",
            "200",
            "--metrics=json",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");

    // Hand-rolled frames: u32 LE length + UTF-8 payload.
    let frame = |line: &str| {
        let mut buf = (line.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(line.as_bytes());
        buf
    };
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(&frame("1 PING")).expect("write");
        stdin.write_all(&frame("2 METRICS")).expect("write");
        stdin.write_all(&frame("3 QUIT")).expect("write");
        stdin.flush().expect("flush");
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Walk the response frames; ids correlate, order may interleave.
    let bytes = out.stdout;
    let mut replies = Vec::new();
    let mut cursor = &bytes[..];
    while cursor.len() >= 4 {
        let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&cursor[4..4 + len]).expect("utf-8 reply");
        replies.push(payload.to_owned());
        cursor = &cursor[4 + len..];
    }
    assert!(
        replies.iter().any(|r| r == "1 OK pong"),
        "no pong in {replies:?}"
    );
    assert!(
        replies
            .iter()
            .any(|r| r.starts_with("2 OK ") && r.contains("serve.requests")),
        "no metrics reply in {replies:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("zero-copy"),
        "v2 open not reported: {stderr}"
    );
    assert!(
        stderr.contains("connection closed"),
        "no close summary: {stderr}"
    );
    // --metrics=json dumped the registry at exit.
    assert!(
        stderr.contains("\"serve.requests\""),
        "no exit dump: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pairings_lists_candidates() {
    let (ok, stdout, _) = run(&["pairings", "ITA", "--scale", "0.02", "--top", "3"]);
    assert!(ok);
    assert!(stdout.contains("novel pairings"));
    assert!(stdout.contains("overlap"));
}

#[test]
fn suggest_generates_a_recipe() {
    let (ok, stdout, _) = run(&["suggest", "ITA", "--scale", "0.02", "--size", "5"]);
    assert!(ok);
    assert!(stdout.contains("generated uniform recipe for Italy"));
    assert_eq!(stdout.lines().filter(|l| l.starts_with("  ")).count(), 5);
    let (ok, stdout, _) = run(&["suggest", "JPN", "--scale", "0.02", "--contrast", "true"]);
    assert!(ok);
    assert!(stdout.contains("contrasting"));
}

#[test]
fn serve_hardening_flags_are_validated_before_touching_data() {
    for (args, needle) in [
        (
            &["serve", "--stdio", "--force-bind"][..],
            "--force-bind only applies to --socket",
        ),
        (
            &["serve", "--stdio", "--read-timeout", "soon"][..],
            "--read-timeout",
        ),
        (
            &["serve", "--stdio", "--write-timeout", "-1"][..],
            "--write-timeout",
        ),
        (
            &["serve", "--stdio", "--idle-timeout", "later"][..],
            "--idle-timeout",
        ),
        (
            &["serve", "--stdio", "--max-conns", "many"][..],
            "--max-conns",
        ),
        // serve takes no WAL flags.
        (
            &["serve", "--stdio", "--fsync", "always"][..],
            "--fsync: unknown flag",
        ),
        (
            &["serve", "--stdio", "--wal", "w"][..],
            "--wal: unknown flag",
        ),
        (
            &["serve", "--stdio", "--segment-bytes", "128"][..],
            "--segment-bytes: unknown flag",
        ),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "args {args:?} should be rejected");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
    }
}

#[test]
fn ingest_and_replay_round_trip_through_wal_segments() {
    let dir = std::env::temp_dir().join(format!("culinaria-walcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("recipes.txt");
    std::fs::write(
        &file,
        "Bruschetta | ITA\ntomato\nolive oil\nbasil\n\n\
         Header Only | JPN\n\n\
         Caprese | ITA\ntomato\nbasil\n",
    )
    .expect("write recipes");
    let file = file.to_str().expect("utf-8 path");
    let wal = dir.join("segments");
    let wal = wal.to_str().expect("utf-8 path");

    // The log target is required, and `--wal` is the only one.
    let (ok, _, stderr) = run(&["ingest", file]);
    assert!(!ok);
    assert!(stderr.contains("needs --wal DIR"), "stderr: {stderr}");
    let (ok, _, stderr) = run(&["replay"]);
    assert!(!ok);
    assert!(stderr.contains("needs --wal DIR"), "stderr: {stderr}");

    // First batch, with a rotation threshold small enough that three
    // records span multiple segments.
    let (ok, stdout, stderr) = run(&[
        "ingest",
        file,
        "--wal",
        wal,
        "--segment-bytes",
        "128",
        "--fsync",
        "always",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("3 records (+3)"), "stdout: {stdout}");
    assert!(stdout.contains("[fsync=always]"), "stdout: {stdout}");
    let segments: Vec<_> = std::fs::read_dir(wal)
        .expect("wal dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cwal"))
        .collect();
    assert!(
        segments.len() >= 2,
        "no rotation: {} segment(s)",
        segments.len()
    );

    // The fresh log was stamped with the importer, so the second batch
    // appends without re-resolving history: the metrics count the
    // batch alone and no verified records.
    let manifest = std::fs::read_to_string(format!("{wal}/MANIFEST")).expect("manifest");
    assert!(
        manifest
            .lines()
            .nth(1)
            .is_some_and(|l| l.starts_with("importer ")),
        "fresh log is not stamped: {manifest}"
    );
    let (ok, stdout, stderr) = run(&[
        "ingest",
        file,
        "--wal",
        wal,
        "--threads",
        "2",
        "--metrics=json",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("6 records (+3)"), "stdout: {stdout}");
    assert!(stdout.contains("store: 4 recipes"), "stdout: {stdout}");
    assert!(
        stderr.contains("\"import.recipes.offered\":3,"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("\"wal.verify.records\":0"),
        "stderr: {stderr}"
    );

    // Replay (full and prefix) rebuilds the same stream.
    let (ok, stdout, _) = run(&["replay", "--wal", wal]);
    assert!(ok);
    assert!(
        stdout.contains("replayed 6/6 records: 4 stored, 2 tombstoned"),
        "stdout: {stdout}"
    );
    let (ok, stdout, _) = run(&["replay", "--wal", wal, "--prefix", "3", "--threads", "2"]);
    assert!(ok);
    assert!(
        stdout.contains("replayed 3/6 records: 2 stored, 1 tombstoned"),
        "stdout: {stdout}"
    );

    // A torn tail (crash residue) is recovered and reported, and the
    // surviving records still replay.
    // The open segment is the highest-numbered .cwal file.
    let open_seg = std::fs::read_dir(wal)
        .expect("wal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".cwal"))
        .max()
        .expect("open segment");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&open_seg)
        .expect("open segment for damage");
    f.write_all(&[0xff; 5]).expect("append torn bytes");
    drop(f);
    let (ok, stdout, stderr) = run(&["replay", "--wal", wal]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("recovered — 5 torn byte(s) truncated"),
        "stderr: {stderr}"
    );
    assert!(
        stdout.contains("replayed 6/6 records"),
        "whole records must survive a torn tail: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `replay` reads a log; it never creates one where there is none.
#[test]
fn replay_refuses_a_missing_log_and_writes_nothing() {
    let root = std::env::temp_dir().join(format!("culinaria-nowal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let listing = |dir: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };

    let replay_refuses = |dir: &std::path::Path| {
        let dir = dir.to_str().expect("utf-8 path");
        let out = Command::new(env!("CARGO_BIN_EXE_culinaria"))
            .args(["replay", "--wal", dir])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{dir}: no wal (MANIFEST missing)")),
            "stderr: {stderr}"
        );
        assert!(out.stdout.is_empty());
    };

    // A directory that does not exist stays absent.
    let before = listing(&root);
    replay_refuses(&root.join("nonexist_dir"));
    assert_eq!(listing(&root), before);

    // An existing directory without a manifest is left as it was.
    let plain = root.join("plain");
    std::fs::create_dir_all(&plain).expect("mkdir");
    std::fs::write(plain.join("notes.txt"), "not a log").expect("write");
    let before = listing(&plain);
    replay_refuses(&plain);
    assert_eq!(listing(&plain), before);
    std::fs::remove_dir_all(&root).ok();
}

/// End-to-end lifecycle over a real socket: clobber guard, live
/// traffic, SIGTERM with zero dropped in-flight replies, and socket
/// cleanup.
#[test]
fn socket_serve_refuses_clobber_and_drains_on_sigterm() {
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("culinaria-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data");
    let data = data.to_str().expect("utf-8 path").to_owned();
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", &data]);
    assert!(ok, "generate failed: {stdout}");
    let sock = dir.join("serve.sock");
    let sock_str = sock.to_str().expect("utf-8 path").to_owned();

    let child = Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args([
            "serve", "--socket", &sock_str, "--data", &data, "--mc", "200",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Wait for the listener to come up.
    let mut up = false;
    for _ in 0..200 {
        if sock.exists() {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(up, "socket never appeared");

    // Clobber guard: a second server must refuse the live socket.
    let (ok, _, stderr) = run(&["serve", "--socket", &sock_str, "--data", &data]);
    assert!(!ok, "second bind must be refused");
    assert!(stderr.contains("refusing to replace"), "stderr: {stderr}");

    // Load + SIGTERM: pipeline five requests, signal before reading a
    // single reply — all five must still be answered before close.
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let frame = |line: &str| {
        let mut buf = (line.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(line.as_bytes());
        buf
    };
    // One full round trip first: the drain guarantee covers *accepted*
    // connections, so prove the handler is live before signalling
    // (otherwise the kill can race the accept and reset us).
    stream.write_all(&frame("99 PING")).expect("send probe");
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr).expect("probe header");
    let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
    stream.read_exact(&mut body).expect("probe body");
    assert_eq!(String::from_utf8_lossy(&body), "99 OK pong");
    for id in 1..=5u64 {
        stream
            .write_all(&frame(&format!("{id} PING")))
            .expect("send");
    }
    stream.flush().expect("flush");
    let pid = child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("drain replies");
    let mut replies = Vec::new();
    let mut cursor = &bytes[..];
    while cursor.len() >= 4 {
        let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
        replies.push(String::from_utf8_lossy(&cursor[4..4 + len]).into_owned());
        cursor = &cursor[4 + len..];
    }
    for id in 1..=5u64 {
        assert!(
            replies.iter().any(|r| r == &format!("{id} OK pong")),
            "reply {id} dropped at shutdown: {replies:?}"
        );
    }

    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "SIGTERM must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shutdown signal received; draining connections"),
        "stderr: {stderr}"
    );
    assert!(!sock.exists(), "socket file must be unlinked on shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand refuses a malformed value and a flag it does not
/// take — including the retired ones — with exit 2 and a message naming
/// the flag, before doing any work.
#[test]
fn every_subcommand_refuses_bad_values_and_unknown_flags() {
    let cases: &[(&[&str], &str)] = &[
        (&["regions", "--scale", "1"], "--scale: unknown flag"),
        (&["generate", "--scale", "big"], "--scale: cannot parse"),
        (&["generate", "--out="], "--out: needs a value"),
        (&["generate", "--format", "v1"], "--format: unknown flag"),
        (&["migrate-artifact", "--in="], "--in: needs a value"),
        (
            &["migrate-artifact", "--no-overlaps"],
            "--no-overlaps: unknown flag",
        ),
        (&["analyze", "--mc", "lots"], "--mc: cannot parse"),
        // Counts that could never run: a null ensemble needs two
        // sampled recipes, N_s a recipe of two ingredients.
        (&["analyze", "--mc", "0"], "--mc: must be at least 2"),
        (&["analyze", "--mc", "1"], "--mc: must be at least 2"),
        (&["report", "ITA", "--mc", "1"], "--mc: must be at least 2"),
        (
            &["replay", "--wal", "w", "--analyze", "--mc", "1"],
            "--mc: must be at least 2",
        ),
        (
            &["serve", "--stdio", "--mc", "1"],
            "--mc: must be at least 2",
        ),
        (
            &["suggest", "ITA", "--size", "0"],
            "--size: must be at least 2",
        ),
        (
            &["suggest", "ITA", "--size", "1"],
            "--size: must be at least 2",
        ),
        (&["analyze", "--metrics=xml"], "--metrics"),
        (&["analyze", "--threads", "2"], "--threads: unknown flag"),
        (&["report", "ITA", "--seed", "x"], "--seed: cannot parse"),
        (&["report", "ITA", "--top", "3"], "--top: unknown flag"),
        (
            &["import", "r.txt", "--threads", "two"],
            "--threads: cannot parse",
        ),
        (&["import", "r.txt", "--wal", "w"], "--wal: unknown flag"),
        (
            &["ingest", "r.txt", "--wal", "w", "--threads", "two"],
            "--threads: cannot parse",
        ),
        (
            &["ingest", "r.txt", "--wal", "w", "--fsync", "sometimes"],
            "always|batch|off",
        ),
        (
            &["ingest", "r.txt", "--log", "l.cwal"],
            "--log: unknown flag",
        ),
        (
            &["replay", "--wal", "w", "--prefix", "abc"],
            "--prefix: cannot parse",
        ),
        (&["replay", "--log", "l.cwal"], "--log: unknown flag"),
        // The analysis flags are refused without --analyze, even with
        // valid values: replay alone never reads them.
        (
            &["replay", "--wal", "w", "--mc", "500"],
            "--mc only applies to --analyze",
        ),
        (
            &["replay", "--wal", "w", "--seed", "7"],
            "--seed only applies to --analyze",
        ),
        (
            &["replay", "--wal", "w", "--metrics=json"],
            "--metrics only applies to --analyze",
        ),
        (&["pairings", "ITA", "--top", "many"], "--top: cannot parse"),
        (&["pairings", "ITA", "--size", "3"], "--size: unknown flag"),
        (&["suggest", "ITA", "--size", "big"], "--size: cannot parse"),
        (
            &["suggest", "ITA", "--contrast", "JPN"],
            "--contrast: takes no value",
        ),
        (&["suggest", "ITA", "--top", "3"], "--top: unknown flag"),
        (
            &["suggest", "ITA", "--uniform", "--contrast"],
            "--uniform and --contrast are mutually exclusive",
        ),
        (
            &["serve", "--stdio", "--batch", "x"],
            "--batch: cannot parse",
        ),
        (&["serve", "--stdio", "--wal", "w"], "--wal: unknown flag"),
        (
            &[
                "serve",
                "--stdio",
                "--once",
                "--max-conns",
                "3",
                "--data",
                "d",
            ],
            "--once: unknown flag",
        ),
        (
            &["serve", "--stdio", "--max-conns", "3"],
            "--max-conns only applies to --socket",
        ),
        (
            &["serve", "--stdio", "--read-timeout", "100"],
            "--read-timeout only applies to --socket",
        ),
        (
            &["serve", "--stdio", "--write-timeout", "100"],
            "--write-timeout only applies to --socket",
        ),
        (
            &["serve", "--stdio", "--idle-timeout", "100"],
            "--idle-timeout only applies to --socket",
        ),
    ];
    for &(args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_culinaria"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: stderr {stderr}");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "args {args:?} did work before failing"
        );
    }
}
