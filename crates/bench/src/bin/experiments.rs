//! The experiment runner: regenerates every quantitative claim of the
//! paper as a markdown table.
//!
//! ```text
//! experiments [--quick] all
//! experiments [--quick] e1 e4 e6
//! experiments --json results.json all
//! experiments --metrics metrics.jsonl e6
//! experiments --check --quick all
//! experiments --threads 8 --checkpoint ck/ e1
//! experiments --list
//! ```
//!
//! `--metrics` appends one `dut-metrics/1` JSON object per tester run
//! (for the instrumented experiments; see `docs/METRICS.md`).
//! `--check` re-derives each experiment's verdict from the freshly
//! generated tables and exits non-zero if an experiment that
//! EXPERIMENTS.md records as **Holds** no longer does — this is the CI
//! smoke lane's regression gate. `--threads N` sets the Monte-Carlo
//! worker count (results are bit-identical at any value; 0 = all
//! cores). `--checkpoint DIR` persists chunk-level Monte-Carlo
//! progress to `DIR/e<N>.jsonl` so interrupted sweeps resume.
//! `--adaptive[=TOL]` turns on confidence-sequence early stopping for
//! the Monte-Carlo experiments (E1/E2/E5): each grid cell stops as
//! soon as its decision threshold is resolved at interval tolerance
//! `TOL` (default 0.002), cutting wall-clock time without changing any
//! verdict; intervals and trial counts do change, so recorded
//! EXPERIMENTS.md tables are regenerated without the flag.
//! `--soak SECS` replaces the E15 soak loop's fixed tick budget with a
//! wall-clock horizon (and implies `e15` when no ids are listed) —
//! tick contents stay seed-pure, so the JSONL audit trail is
//! reproducible per tick at any duration.
//! Experiment ids are zero-pad tolerant: `e06` names `e6`.

#![forbid(unsafe_code)]

use dut_bench::{
    normalize_id, run_experiment_ctx, verdict, ExperimentCtx, MetricsLog, Scale, ALL_EXPERIMENTS,
};
use dut_core::Checkpoint;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str =
    "usage: experiments [--quick] [--list] [--check] [--threads N] [--checkpoint dir] \
     [--adaptive[=TOL]] [--soak SECS] [--json out.json] [--metrics out.jsonl] \
     (all | e1 .. e16)+";

/// Interval tolerance a bare `--adaptive` uses: tight enough that every
/// E1 verdict margin survives, loose enough to stop clear-cut cells
/// after a few chunks.
const DEFAULT_ADAPTIVE_TOL: f64 = 0.002;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut adaptive: Option<f64> = None;
    let mut soak: Option<std::time::Duration> = None;
    let mut check = false;
    let mut expect_value_for: Option<&str> = None;
    for a in &args {
        if let Some(flag) = expect_value_for.take() {
            match flag {
                "--json" => json_path = Some(a.clone()),
                "--metrics" => metrics_path = Some(a.clone()),
                "--checkpoint" => checkpoint_dir = Some(PathBuf::from(a)),
                "--soak" => match a.parse::<u64>() {
                    Ok(secs) if secs > 0 => soak = Some(std::time::Duration::from_secs(secs)),
                    _ => {
                        eprintln!("--soak needs a positive number of seconds, got {a}");
                        std::process::exit(2);
                    }
                },
                _ => match a.parse::<usize>() {
                    Ok(n) => dut_core::montecarlo::set_default_threads(n),
                    Err(_) => {
                        eprintln!("--threads needs a number, got {a}");
                        std::process::exit(2);
                    }
                },
            }
            continue;
        }
        match a.as_str() {
            "--json" => expect_value_for = Some("--json"),
            "--metrics" => expect_value_for = Some("--metrics"),
            "--checkpoint" => expect_value_for = Some("--checkpoint"),
            "--soak" => expect_value_for = Some("--soak"),
            "--threads" | "-j" => expect_value_for = Some("--threads"),
            "--check" => check = true,
            "--adaptive" => adaptive = Some(DEFAULT_ADAPTIVE_TOL),
            "--quick" | "-q" => scale = Scale::Quick,
            "--list" | "-l" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with("--adaptive=") => {
                let value = &other["--adaptive=".len()..];
                match value.parse::<f64>() {
                    Ok(tol) if tol.is_finite() && tol > 0.0 => adaptive = Some(tol),
                    _ => {
                        eprintln!("--adaptive needs a positive tolerance, got {value}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                let id = normalize_id(other);
                if ALL_EXPERIMENTS.contains(&id.as_str()) {
                    ids.push(id);
                } else {
                    eprintln!("unknown argument: {other}");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            }
        }
    }
    if let Some(flag) = expect_value_for {
        eprintln!("{flag} needs a value argument");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if ids.is_empty() {
        if soak.is_some() {
            // `experiments --soak SECS` alone means: run the soak.
            ids.push("e15".to_string());
        } else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    ids.dedup();

    let mut log = match &metrics_path {
        Some(path) => match MetricsLog::create(Path::new(path)) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("failed to create {path}: {e}");
                std::process::exit(1);
            }
        },
        None => MetricsLog::disabled(),
    };
    if let Some(dir) = &checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    println!(
        "# Distributed Uniformity Testing — experiment run ({})\n",
        match scale {
            Scale::Quick => "quick scale",
            Scale::Full => "full scale",
        }
    );
    let mut all_tables: Vec<dut_bench::Table> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    for id in ids {
        let start = Instant::now();
        let mut checkpoint = match &checkpoint_dir {
            Some(dir) => match Checkpoint::open(&dir.join(format!("{id}.jsonl"))) {
                Ok(ck) => Some(ck),
                Err(e) => {
                    eprintln!("unusable checkpoint for {id}: {e}");
                    std::process::exit(1);
                }
            },
            None => None,
        };
        let tables = run_experiment_ctx(
            &id,
            ExperimentCtx {
                scale,
                log: &mut log,
                checkpoint: checkpoint.as_mut(),
                adaptive,
                soak,
            },
        );
        for table in &tables {
            println!("{table}");
        }
        println!(
            "_{} finished in {:.1}s_\n",
            id,
            start.elapsed().as_secs_f64()
        );
        if check {
            let fresh = verdict::check(&id, &tables);
            let recorded_holds = verdict::recorded_holds(&id)
                .unwrap_or_else(|| panic!("{id} missing from EXPERIMENTS.md verdict table"));
            match (&fresh, recorded_holds) {
                (Err(why), true) => {
                    println!("_{id} verdict: REGRESSED — {why}_\n");
                    regressions.push(format!("{id}: {why}"));
                }
                (Err(why), false) => {
                    // Recorded as not holding; an Err is the status quo.
                    println!("_{id} verdict: fails as recorded ({why})_\n");
                }
                (Ok(()), _) => println!("_{id} verdict: holds_\n"),
            }
        }
        all_tables.extend(tables);
    }
    if let Some(path) = json_path {
        let json = dut_bench::tables_to_json(&all_tables);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = metrics_path {
        if let Err(e) = log.flush() {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} metric records to {path}", log.records());
    }
    if !regressions.is_empty() {
        eprintln!("verdict regressions ({}):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
