//! Runs all four workloads at smoke sizes, timed and traced, and checks
//! that each produces every catalogued metric with every check passing.
//! The daemon binary is built first if it is not there yet.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use fetchvp_benchmark::golden::Golden;
use fetchvp_benchmark::report::{END_TO_END, PER_LAYER};
use fetchvp_benchmark::{run_workload, Ctx, Sizes, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `fetchvp-cli`, built in release mode into this test's target directory.
fn cli() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo().join("target"));
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "fetchvp-cli",
            "--manifest-path",
        ])
        .arg(repo().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building fetchvp-cli failed");
    target.join("release").join("fetchvp-cli")
}

#[test]
fn smoke_runs_every_workload_timed_and_traced() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&out).unwrap();
    let cli = cli();
    let start = Instant::now();
    for traced in [false, true] {
        for w in Workload::ALL {
            let ctx = Ctx {
                workload: w,
                seed: 7,
                seconds: 0.3,
                traced,
                sizes: Sizes::SMOKE,
                cli: cli.clone(),
                scratch: out.join(format!("tmp-{}", w.name())),
                trace_out: out.join(format!("trace-{}.json", w.name())),
            };
            let o = run_workload(&ctx, None);
            assert!(o.correct(), "{} traced={traced}: {:?}", w.name(), o.problems);
            let catalog = if traced { &PER_LAYER[..] } else { &END_TO_END[..] };
            assert_eq!(o.metrics.len(), catalog.len());
            for d in catalog {
                assert!(o.metrics[d.name].is_finite(), "{} {}", w.name(), d.name);
            }
            assert!(!ctx.scratch.exists(), "scratch directory left behind");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Optimized builds must meet the 15 s budget; unoptimized ones get
    // the slack their slower simulation needs.
    let budget = if cfg!(debug_assertions) { 120.0 } else { 15.0 };
    assert!(elapsed < budget, "smoke took {elapsed:.1} s");
}

#[test]
fn golden_pins_both_seeds_for_every_workload() {
    let golden = Golden::load(&repo().join("perfbench/golden.json")).expect("golden file");
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for w in Workload::ALL {
            let pinned = golden.pinned(seed, w.name());
            assert!(
                pinned.is_some_and(|p| !p.is_empty()),
                "{} not pinned at seed {seed}",
                w.name()
            );
        }
    }
}
