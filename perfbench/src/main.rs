//! The repository's benchmark: end-to-end and per-layer metrics of the
//! mwn simulator on three workloads, measured from outside its crates.
//!
//! ```text
//! perfbench --workload <figures|city-mobility|web-churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- ...`.
//! Each repetition runs in a child process of this binary; repetitions go
//! on in rounds until `--seconds` have passed (at least two rounds, so
//! every instance runs twice and its exact counts can be compared). The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any run failed or any check did not hold.

mod alloc;
mod metrics;
mod rep;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use mwn_obs::json::Obj;

use crate::rep::{Mode, Rep};
use crate::workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where repetitions write their trace spans and temporary stores,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Rounds every run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child: run one repetition in this mode and report it.
    child: Option<Mode>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace` takes 0 or 1, not `{v}`")),
                })
            }
            "--child" => child = Some(Mode::parse(value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    let seed = seed.ok_or("missing `--seed`")?;
    if child.is_some() {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            child,
        });
    }
    let seconds = seconds.ok_or("missing `--seconds`")?;
    if !(1..=3_600).contains(&seconds) {
        return Err(format!("`--seconds` must be 1..=3600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("missing `--trace`")?,
        child,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    if let Some(mode) = args.child {
        println!(
            "{}",
            rep::run(mode, args.workload, args.seed, &out).to_json()
        );
        return;
    }
    match bench(&args, &out) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// `nproc`, CPU model, compiler and commit, printed with every result.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    Obj::new()
        .usize("nproc", mwn_runner::default_workers())
        .str("cpu", &cpu)
        .str("rustc", &rustc)
        .str("commit", &mwn_runner::detect_commit())
        .finish()
}

/// Runs one repetition in a child process and reads its report.
fn child(exe: &Path, mode: Mode, workload: Workload, seed: u64) -> Rep {
    let output = Command::new(exe)
        .args(["--child", mode.name(), "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .output();
    let report = output
        .map_err(|e| format!("cannot start a repetition: {e}"))
        .and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            match text.lines().last() {
                Some(line) if o.status.success() => Rep::from_json(line),
                _ => Err(format!("repetition exited with {}", o.status)),
            }
        });
    report.unwrap_or_else(|error| Rep {
        attempted: 1,
        failed: 1,
        error,
        ..Rep::default()
    })
}

/// Runs the benchmark; `Ok(false)` when a run failed or a check broke.
fn bench(args: &Args, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    println!("host {}", host_fingerprint());
    let w = args.workload;
    if args.trace {
        // Traced repetitions append; start the file afresh.
        let _ = std::fs::remove_file(rep::trace_path(out, w));
    }
    let instances: Vec<u64> = (0..w.instances())
        .map(|i| workload::instance_seed(args.seed, i))
        .collect();
    let modes: &[Mode] = if args.trace {
        &[Mode::Untraced, Mode::Traced]
    } else {
        &[Mode::Untraced]
    };

    // reps[instance][round][mode]
    let mut reps: Vec<Vec<Vec<Rep>>> = vec![Vec::new(); instances.len()];
    let mut checks = metrics::Checks::default();
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs() < args.seconds {
        for (k, &seed) in instances.iter().enumerate() {
            let pair: Vec<Rep> = modes.iter().map(|&m| child(&exe, m, w, seed)).collect();
            checks.round(k, round, &pair, reps[k].first());
            reps[k].push(pair);
        }
        round += 1;
    }

    let metrics = if args.trace {
        let (metrics, kinds) = metrics::per_layer(&reps);
        for line in kinds {
            println!("{line}");
        }
        metrics
    } else {
        metrics::end_to_end(&reps)
    };
    let (attempted, failed) = checks.totals(&reps);
    for e in &checks.errors {
        println!("check failed: {e}");
    }
    println!(
        "{} rounds of {} instance(s); fail_frac {} ({failed}/{attempted})",
        round,
        instances.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failed == 0;
    let metrics_json = metrics
        .iter()
        .fold(Obj::new(), |o, (name, unit, value)| {
            o.raw(
                name,
                &Obj::new().f64("value", *value).str("unit", unit).finish(),
            )
        })
        .finish();
    println!(
        "{}",
        Obj::new()
            .raw("correct", if correct { "true" } else { "false" })
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", &metrics_json)
            .finish()
    );
    Ok(correct)
}
