//! Integration tests: every reproduction harness runs end-to-end at a
//! tiny scale and emits its key sections. This keeps the paper-facing
//! binaries from rotting as the library evolves.

use std::process::Command;

/// Run a harness binary with a miniature world and reduced Monte Carlo.
fn run(path: &str) -> String {
    let out = Command::new(path)
        .env("CULINARIA_SCALE", "0.005")
        .env("CULINARIA_MC", "1000")
        .env("CULINARIA_SEED", "2018")
        .output()
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        out.status.success(),
        "{path} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_reports_all_regions_and_totals() {
    let out = run(env!("CARGO_BIN_EXE_repro_table1"));
    for code in ["AFR", "ITA", "USA", "KOR"] {
        assert!(out.contains(code), "{code} missing");
    }
    assert!(out.contains("45565"));
    assert!(out.contains("paper: Korea, 301"));
}

#[test]
fn fig2_prints_heatmap_and_checks() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig2"));
    assert!(out.contains("WORLD"));
    assert!(out.contains("dairy"));
    assert!(out.contains("χ²") || out.contains("chi2"));
    assert!(out.contains("spice"));
}

#[test]
fn fig3a_reports_mean_size() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig3a"));
    assert!(out.contains("WORLD: mean"));
    assert!(out.contains("cumulative"));
}

#[test]
fn fig3b_reports_scaling() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig3b"));
    assert!(out.contains("Zipf exponents"));
    assert!(out.contains("rank"));
}

#[test]
fn fig4_reports_all_models_and_agreement() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig4"));
    for col in ["z_random", "z_freq", "z_cat", "z_freq+cat"] {
        assert!(out.contains(col), "{col} missing");
    }
    assert!(out.contains("sign agreement with paper:"));
    assert!(out.contains("median |z|/|z_random|"));
}

#[test]
fn fig5_lists_positive_and_negative_groups() {
    let out = run(env!("CARGO_BIN_EXE_repro_fig5"));
    assert!(out.contains("POSITIVE food pairing"));
    assert!(out.contains("NEGATIVE food pairing"));
    // Negative group has exactly the paper's six regions.
    let neg_section = out
        .split("NEGATIVE food pairing")
        .nth(1)
        .expect("negative section present");
    for code in ["SCND", "JPN", "DACH", "BRI", "KOR", "EE"] {
        assert!(neg_section.contains(code), "{code} missing from 5(b)");
    }
}

#[test]
fn ntuples_reports_three_orders() {
    let out = run(env!("CARGO_BIN_EXE_repro_ntuples"));
    assert!(out.contains("Ns(2)"));
    assert!(out.contains("Ns(4)"));
    assert!(out.contains("share their sign"));
}

#[test]
fn evolution_sweeps_mutation_rates() {
    let out = run(env!("CARGO_BIN_EXE_repro_evolution"));
    assert!(out.contains("zipf_exp"));
    assert!(out.contains("0.80"));
    assert!(out.contains("empirical zipf exponent"));
}

#[test]
fn robustness_reports_stability() {
    let out = run(env!("CARGO_BIN_EXE_repro_robustness"));
    assert!(out.contains("sign_stability"));
    assert!(out.contains("worst-case sign stability"));
}

#[test]
fn network_reports_statistics() {
    let out = run(env!("CARGO_BIN_EXE_repro_network"));
    assert!(out.contains("density"));
    assert!(out.contains("flavor hubs"));
    assert!(out.contains("heaviest flavor edges"));
}

#[test]
fn classifier_reports_accuracy() {
    let out = run(env!("CARGO_BIN_EXE_repro_classifier"));
    assert!(out.contains("top-1 accuracy"));
    assert!(out.contains("Per-region recall"));
}

#[test]
fn ablation_sweeps_both_knobs() {
    // The ablation binary ignores CULINARIA_SCALE (it sets its own),
    // but runs quickly enough at its built-in scale — still, drive it
    // through the common runner for env consistency.
    let out = run(env!("CARGO_BIN_EXE_repro_ablation"));
    assert!(out.contains("alpha"));
    assert!(out.contains("sign_agreement"));
    assert!(out.contains("freq_median_ratio"));
    // Six configurations reported.
    assert_eq!(out.lines().filter(|l| l.contains("/22")).count(), 6);
}

#[test]
fn similarity_reports_clusters() {
    let out = run(env!("CARGO_BIN_EXE_repro_similarity"));
    assert!(out.contains("Nearest neighbour"));
    assert!(out.contains("Average-linkage clustering"));
    // The final merge covers all 22 regions.
    assert!(out.contains("21. "));
}

#[test]
fn cooking_reports_method_table() {
    let out = run(env!("CARGO_BIN_EXE_repro_cooking"));
    assert!(out.contains("roasted"));
    assert!(out.contains("boiled"));
    assert!(out.contains("homogenize"));
}

#[test]
fn malformed_knobs_and_flags_exit_2_naming_them() {
    let table1 = env!("CARGO_BIN_EXE_repro_table1");
    for (env, args, named) in [
        (Some("0,01"), &[][..], "CULINARIA_SCALE"),
        (None, &["--scale", "0.5"][..], "--scale"),
    ] {
        let mut cmd = Command::new(table1);
        cmd.args(args).env_remove("CULINARIA_SCALE");
        if let Some(scale) = env {
            cmd.env("CULINARIA_SCALE", scale);
        }
        let out = cmd.output().expect("run repro_table1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{stderr}");
        assert!(out.stdout.is_empty(), "refused before any work");
    }
}
