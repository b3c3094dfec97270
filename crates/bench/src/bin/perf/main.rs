//! `perf` — the repository's performance ledger (see README.md beside
//! this file).
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run of one workload; the last
//!                                                      stdout line is the result
//! perf run [--runs R] [--trace] [--out F]              every workload, each in a child
//!                                                      process, gathered into one ledger
//! perf compare OLD.json NEW.json                       judge NEW against OLD
//! perf metrics                                         every metric by name, with unit
//! perf benchmark-json                                  the contents of BENCHMARK.json
//! ```

mod catalog;
mod compare;
mod inproc;
mod layers;
mod run;
mod served;
mod stats;
mod trace;
mod workloads;

use catalog::object;
use run::{Report, WorkDir, Workload};
use serde::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

pub const DEFAULT_SEED: u64 = 20080407;
pub const DEFAULT_SECONDS: f64 = catalog::RUN_SECONDS as f64;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    trace_out: PathBuf,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workloads: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            runs: 1,
            out: None,
            trace_out: PathBuf::from("perf-trace.json"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &String| format!("{flag}: cannot read {v:?}");
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !catalog::WORKLOADS.iter().any(|k| k.name == w) {
                        return Err(format!("unknown workload {w:?}"));
                    }
                    a.workloads.push(w.clone());
                }
                "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                }
                "--runs" => {
                    a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if a.runs == 0 {
                        return Err("--runs must be at least 1".into());
                    }
                }
                "--out" => a.out = Some(PathBuf::from(value()?)),
                "--trace-out" => a.trace_out = PathBuf::from(value()?),
                "--quick" => a.quick = true,
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                "--trace" => match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        a.trace = false;
                    }
                    Some("1") => {
                        it.next();
                        a.trace = true;
                    }
                    _ => a.trace = true,
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(a)
    }
}

fn generate(workload: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    match workload {
        "astral_topk" => Box::new(workloads::astral(seed, quick)),
        "pin_align" => Box::new(workloads::pin(seed, quick)),
        "kegg_mutate_mix" => Box::new(workloads::kegg(seed, quick)),
        "served_lookup" => Box::new(workloads::served(seed, quick)),
        other => unreachable!("workload {other:?} passed argument checking"),
    }
}

/// One run of one workload in this process.
fn run_one(workload: &str, a: &Args, work: &Path) -> Result<Report, String> {
    let w = generate(workload, a.seed, a.quick);
    run::beat();
    let setups = if a.quick { 1 } else { run::SETUPS };
    if a.trace {
        run::traced(w.as_ref(), work, a.seconds, &a.trace_out)
    } else {
        run::measure(w.as_ref(), work, a.seconds, setups)
    }
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn int(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

/// The result line the driver reads.
fn result_json(r: &Report) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = catalog::unit_of(name).unwrap_or("");
            let m = object(vec![
                ("value", num(*v)),
                ("unit", Value::String(unit.into())),
            ]);
            ((*name).to_owned(), m)
        })
        .collect();
    object(vec![
        ("correct", Value::Bool(r.correct)),
        ("attempted", int(r.attempted.max(1) as u64)),
        ("failed", int(r.failed as u64)),
        ("metrics", Value::Object(metrics)),
    ])
}

/// Sizes and sample counts of a run, for the ledger.
fn detail_json(workload: &str, a: &Args, r: &Report) -> Value {
    let s = &r.sizes;
    object(vec![(
        "detail",
        object(vec![
            ("workload", Value::String(workload.into())),
            ("seed", int(a.seed)),
            ("seconds", num(a.seconds)),
            ("graphs", int(s.graphs as u64)),
            ("nodes", int(s.nodes)),
            ("index_pages", int(s.index_bytes / inproc::PAGE_BYTES)),
            ("pool_frames", int(s.pool_frames as u64)),
            ("ops_per_pass", int(s.ops_per_pass as u64)),
            ("passes", int(r.passes as u64)),
            ("queries_per_pass", int(r.queries as u64)),
            ("latency_samples", int(r.latency_samples as u64)),
            (
                "p90_has_ten_beyond",
                Value::Bool(stats::tail_supported(r.latency_samples, 90.0)),
            ),
            (
                "setup_s_each",
                Value::Array(r.setup_all_s.iter().map(|s| num(*s)).collect()),
            ),
            (
                "pass_ops_per_s",
                Value::Array(r.pass_ops_per_s.iter().map(|s| num(*s)).collect()),
            ),
            (
                "input_checksum",
                Value::String(format!("{:016x}", r.input_checksum)),
            ),
            (
                "result_checksum",
                Value::String(format!("{:016x}", r.checksum)),
            ),
            (
                "problems",
                Value::Array(r.problems.iter().cloned().map(Value::String).collect()),
            ),
        ]),
    )])
}

fn print_table(workload: &str, r: &Report) {
    eprintln!(
        "{workload}: {} ops, {} failed, {} passes",
        r.attempted, r.failed, r.passes
    );
    for (name, v) in &r.metrics {
        eprintln!(
            "  {name:<40} {v:>16.6} {}",
            catalog::unit_of(name).unwrap_or("")
        );
    }
    for p in &r.problems {
        eprintln!("  problem: {p}");
    }
}

/// A run that marks no progress for this long is taken to hang: no set-up
/// step or operation of any workload takes a tenth of it.
const STALL: Duration = Duration::from_secs(30);

/// One run of one workload (the driver form); the result is the last line
/// of stdout. A watchdog thread ends the process with a failed result when
/// the run stops making progress — `TaleDatabase::query` can fail to
/// terminate (README.md, "A query that never returns"), and a stuck thread
/// cannot be stopped any other way.
fn single(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workloads[0].as_str();
    let work = WorkDir::new().map_err(|e| format!("work directory: {e}"))?;
    // Anything below that asks the OS for a temp directory stays in here.
    std::env::set_var("TMPDIR", work.path());
    run::beat();

    let (done, running) = mpsc::channel::<()>();
    let watched = (workload.to_owned(), work.path().to_owned());
    let watchdog = std::thread::spawn(move || loop {
        match running.recv_timeout(Duration::from_millis(500)) {
            Err(RecvTimeoutError::Timeout) => {}
            _ => return,
        }
        let (quiet, beats) = run::quiet();
        if quiet > STALL {
            let (workload, work) = &watched;
            eprintln!("perf: {workload}: no progress for {quiet:?}, an operation does not return");
            let failed = object(vec![
                ("correct", Value::Bool(false)),
                ("attempted", int(beats.max(1))),
                ("failed", int(1)),
                ("metrics", Value::Object(Vec::new())),
            ]);
            println!("{}", serde_json::to_string(&failed).unwrap_or_default());
            let _ = std::fs::remove_dir_all(work);
            if let Some(parent) = work.parent() {
                let _ = std::fs::remove_dir(parent); // only when empty
            }
            std::process::exit(1);
        }
    });
    let report = run_one(workload, a, work.path());
    drop(done);
    watchdog.join().map_err(|_| "watchdog panicked")?;
    drop(work);
    let report = report?;

    print_table(workload, &report);
    let detail = detail_json(workload, a, &report);
    let result = result_json(&report);
    println!(
        "{}",
        serde_json::to_string(&detail).map_err(|e| e.to_string())?
    );
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `perf` again as a child process with `args`, its stderr passed
/// through; returns whether it succeeded and its stdout.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `perf run`: every asked workload `--runs` times, each run a child
/// process of this binary (so `peak_rss_mb` is per workload), gathered
/// into one ledger.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let names: Vec<&str> = if a.workloads.is_empty() {
        catalog::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let mut runs = Vec::new();
    let mut bad = false;
    for run in 0..a.runs {
        for name in &names {
            let mut args: Vec<String> = [
                ("--workload", (*name).to_owned()),
                ("--seed", a.seed.to_string()),
                ("--seconds", a.seconds.to_string()),
                ("--trace", u8::from(a.trace).to_string()),
                ("--trace-out", format!("perf-trace.{name}.json")),
            ]
            .into_iter()
            .flat_map(|(flag, value)| [flag.to_owned(), value])
            .collect();
            if a.quick {
                args.push("--quick".into());
            }
            let (ok, stdout) = child(&args)?;
            let mut lines = stdout.lines().rev();
            let parsed = lines.next().zip(lines.next()).and_then(|(result, detail)| {
                let r: Value = serde_json::from_str(result).ok()?;
                let d: Value = serde_json::from_str(detail).ok()?;
                Some((r, serde::obj_get(d.as_object()?, "detail")?.clone()))
            });
            let Some((result, detail)) = parsed else {
                return Err(format!("{name}: run ended without a result"));
            };
            let field = |k: &str| serde::obj_get(result.as_object().unwrap_or(&[]), k).cloned();
            bad |= !ok || field("correct") != Some(Value::Bool(true));
            let mut entry = vec![
                ("workload".to_owned(), Value::String((*name).into())),
                ("run".to_owned(), int(run as u64)),
            ];
            entry.extend(result.as_object().unwrap_or(&[]).iter().cloned());
            entry.push(("detail".to_owned(), detail));
            runs.push(Value::Object(entry));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ledger = object(vec![
        ("seed", int(a.seed)),
        ("seconds", num(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("quick", Value::Bool(a.quick)),
        ("nproc", int(nproc as u64)),
        (
            "commit",
            Value::String(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::String(tool_line("rustc", &["-V"]))),
        (
            "probe_kernel",
            Value::String(tale_nhindex::bitprobe::active_kernel().name().into()),
        ),
        ("runs", Value::Array(runs)),
    ]);
    let text = serde_json::to_string_pretty(&ledger).map_err(|e| e.to_string())?;
    match &a.out {
        Some(path) => {
            std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => println!("{text}"),
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_metrics() {
    println!("workloads:");
    for w in catalog::WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (bound = share of the parent's median it may worsen by):");
    for m in catalog::END_TO_END {
        println!(
            "  {:<24} {:<6} {:<7} bound {:<5} {}",
            m.name, m.unit, m.better, m.bound, m.what
        );
    }
    println!("per-layer metrics (traced run), with what each should move:");
    for m in catalog::PER_LAYER {
        println!("  {:<40} {:<6} {:<7} {}", m.name, m.unit, m.better, m.moves);
    }
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run_all(&Args::parse(&argv[1..])?),
        Some("compare") => match &argv[1..] {
            [old, new] => compare::compare_files(Path::new(old), Path::new(new)),
            _ => Err("usage: perf compare OLD.json NEW.json".into()),
        },
        Some("metrics") => {
            print_metrics();
            Ok(ExitCode::SUCCESS)
        }
        Some("benchmark-json") => {
            let text = serde_json::to_string_pretty(&catalog::benchmark_json());
            println!("{}", text.map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let a = Args::parse(&argv)?;
            if a.workloads.len() != 1 {
                return Err("give exactly one --workload (or use `perf run`)".into());
            }
            single(&a)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload pin_align --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads, ["pin_align"]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(!args("--workload pin_align --trace 0").unwrap().trace);
        assert!(args("--trace --quick").unwrap().trace);
        assert!(args("--trace --quick").unwrap().quick);
        assert_eq!(args("").unwrap().seed, DEFAULT_SEED);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }

    /// `--quick` smoke: one tiny pass per workload, every named metric
    /// present with its unit, nothing failed — untraced and traced.
    #[test]
    fn quick_smoke_reports_every_metric() {
        let work = WorkDir::new().unwrap();
        for w in catalog::WORKLOADS {
            let mut a = args("--quick --seconds 0.2").unwrap();
            a.trace_out = work.path().join("trace.json");
            let r = run_one(w.name, &a, &work.path().join(w.name)).unwrap();
            assert!(r.correct, "{}: {:?}", w.name, r.problems);
            assert_eq!(r.failed, 0, "{}", w.name);
            let json = result_json(&r);
            let metrics = serde::obj_get(json.as_object().unwrap(), "metrics").unwrap();
            for m in catalog::END_TO_END {
                let got = serde::obj_get(metrics.as_object().unwrap(), m.name)
                    .unwrap_or_else(|| panic!("{}: no {}", w.name, m.name));
                let unit = serde::obj_get(got.as_object().unwrap(), "unit").unwrap();
                assert_eq!(unit.as_str(), Some(m.unit));
                let v = serde::obj_get(got.as_object().unwrap(), "value").unwrap();
                assert!(v.as_f64().unwrap() > 0.0, "{}: {} = {v:?}", w.name, m.name);
            }
            assert_eq!(
                metrics.as_object().unwrap().len(),
                catalog::END_TO_END.len()
            );

            a.trace = true;
            let r = run_one(w.name, &a, &work.path().join(w.name)).unwrap();
            assert!(r.correct, "{} traced: {:?}", w.name, r.problems);
            for m in catalog::PER_LAYER {
                assert!(r.metrics.contains_key(m.name), "{}: no {}", w.name, m.name);
            }
            assert_eq!(r.metrics.len(), catalog::PER_LAYER.len());
            assert!(a.trace_out.exists());
        }
    }
}
