//! The repository benchmark: runs one named workload through the public
//! `raptee_sim` API and prints its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_raptee --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times repetitions of `Simulation::new` + `Simulation::run`
//! with tracing off and prints the end-to-end metrics; `--trace 1` steps
//! the same run round by round with spans, replays each layer's hot
//! function between rounds and prints the per-layer metrics. Both check
//! every result (see `check.rs`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! README.md for the workloads, metrics and caveats.

mod check;
mod stats;
mod trace;
mod workloads;

use check::Tally;
use raptee_sim::{RunResult, Scenario, Simulation};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Worker threads of every timed run.
const WORKERS: usize = 2;
/// Fewest `Simulation::new` samples behind `setup_s`: repetitions that
/// do not reach it inside the window are topped up with set-ups alone.
const MIN_SETUPS: usize = 3;
/// Set-up-only top-ups also continue until they have taken this long,
/// so cheap set-ups get a median over many samples.
const SETUP_TOPUP: Duration = Duration::from_secs(1);

const USAGE: &str =
    "usage: raptee-perfbench --workload <paper_raptee|arena_mixed|hostile_events|scale_200k> \
--seed <u64> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One timed repetition: `Simulation::new` then `Simulation::run`.
pub struct Rep {
    /// Wall time of `Simulation::new`, seconds.
    pub setup_s: f64,
    /// Wall time of `Simulation::run`, seconds.
    pub run_s: f64,
    /// The run's result.
    pub result: RunResult,
}

/// Builds and runs `s` once, timing each half.
pub fn rep(s: &Scenario) -> Rep {
    let s = s.clone();
    let t = Instant::now();
    let sim = Simulation::new(s);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let result = sim.run();
    Rep {
        setup_s,
        run_s: t.elapsed().as_secs_f64(),
        result,
    }
}

/// Times `Simulation::new` alone, dropping the simulation.
fn setup_only(s: &Scenario) -> f64 {
    let s = s.clone();
    let t = Instant::now();
    let sim = Simulation::new(s);
    let secs = t.elapsed().as_secs_f64();
    drop(sim);
    secs
}

/// Runs one guarded, checked repetition and books it; returns it when it
/// passed. `reference` is set from the first passing repetition.
pub fn checked_rep(
    what: &str,
    s: &Scenario,
    reference: &mut Option<u64>,
    tally: &mut Tally,
) -> Option<Rep> {
    let outcome = check::guarded(|| rep(s)).and_then(|r| {
        let fp = check::verify(s, &r.result, *reference)?;
        reference.get_or_insert(fp);
        Ok(r)
    });
    tally.record(what, outcome)
}

/// The determinism check: a one-worker run of the workload's check
/// scenario must reproduce the two-worker fingerprint. `timed_reference`
/// is the fingerprint of the timed scenario, used when the check runs
/// that scenario itself.
pub fn worker_count_check(w: &Workload, timed_reference: Option<u64>, tally: &mut Tally) {
    let s = w.check_scenario();
    let mut reference = timed_reference.filter(|_| w.check_n.is_none());
    if reference.is_none() {
        checked_rep("check at 2 workers", &s, &mut reference, tally);
    }
    if reference.is_some() {
        rayon::with_num_threads(1, || {
            checked_rep("check at 1 worker", &s, &mut reference, tally)
        });
    }
}

/// `--trace 0`: repetitions inside the window, set-up top-ups, the
/// determinism check; returns the end-to-end metrics.
fn timed(w: &Workload, window: Duration, tally: &mut Tally) -> Vec<Metric> {
    let s = &w.scenario;
    let mut reference = None;
    let mut reps = Vec::new();
    let start = Instant::now();
    for attempt in 1.. {
        let name = format!("repetition {attempt}");
        if let Some(r) = checked_rep(&name, s, &mut reference, tally) {
            reps.push(r);
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / attempt > window {
            break;
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let topup = Instant::now();
    while !reps.is_empty() && (setups.len() < MIN_SETUPS || topup.elapsed() < SETUP_TOPUP) {
        match check::guarded(|| setup_only(s)) {
            Ok(secs) => setups.push(secs),
            Err(e) => {
                tally.record::<()>("set-up", Err(e));
                break;
            }
        }
    }
    worker_count_check(w, reference, tally);

    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let run_s = stats::median(&runs);
    eprintln!("perfbench: run_s samples {runs:?}");
    eprintln!(
        "perfbench: {} setup_s samples, min {} max {}",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    vec![
        (
            "node_rounds_per_s",
            if run_s > 0.0 {
                w.node_rounds() / run_s
            } else {
                0.0
            },
            "node_rounds/s",
        ),
        ("setup_s", stats::median(&setups), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        (
            "byz_view_share",
            reps.first().map_or(0.0, |r| r.result.resilience),
            "fraction",
        ),
    ]
}

/// High-water resident set of this process (VmHWM), MiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where run records and span files go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Minimal JSON string escaping (names and messages are ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite metric value as JSON (non-finite values print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {} (one of {})\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let window = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = rayon::with_num_threads(WORKERS, || {
        if args.trace {
            trace::traced(&w, window, &mut tally)
        } else {
            timed(&w, window, &mut tally)
        }
    });

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes: Vec<String> = w.sizes().iter().map(|(k, v)| format!("{k}={v}")).collect();
    let env = [
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("workers", WORKERS.to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("git_rev", git_rev()),
        ("sizes", sizes.join(" ")),
    ];
    for (k, v) in &env {
        println!("# {k}: {v}");
    }
    for f in &tally.failures {
        println!("# FAILED {f}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "run_failure_ratio = {} ratio ({} of {} runs failed)",
        tally.failure_ratio(),
        tally.failed,
        tally.attempted
    );

    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"environment\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}\n",
        env_json.join(", "),
        tally.attempted,
        tally.failed,
        tally.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        metrics_json(&metrics)
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload arena_mixed --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("arena_mixed", 9, 20, true)
        );
        assert!(args("--workload arena_mixed --seed x --seconds 1").is_err());
        assert!(args("--workload arena_mixed --seconds 1").is_err());
        assert!(args("--workload arena_mixed --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn every_workload_shape_runs_tiny_and_passes_the_gate() {
        for name in workloads::NAMES {
            let w = Workload::tiny(name, 3).unwrap();
            let mut tally = Tally::default();
            let mut reference = None;
            checked_rep(name, &w.scenario, &mut reference, &mut tally);
            checked_rep(name, &w.scenario, &mut reference, &mut tally);
            rayon::with_num_threads(1, || {
                checked_rep(name, &w.scenario, &mut reference, &mut tally)
            });
            assert_eq!(
                (tally.attempted, tally.failed),
                (3, 0),
                "{name}: {:?}",
                tally.failures
            );
        }
    }

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn spec_names(spec: &str, section: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).unwrap();
        let body = &spec[start..start + spec[start..].find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn both_modes_emit_exactly_the_declared_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let names = |m: &[Metric]| m.iter().map(|(n, _, _)| n.to_string()).collect::<Vec<_>>();
        for name in workloads::NAMES {
            let w = Workload::tiny(name, 5).unwrap();
            let mut tally = Tally::default();
            let e2e = timed(&w, Duration::ZERO, &mut tally);
            let layers = trace::traced(&w, Duration::ZERO, &mut tally);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.failures);
            assert_eq!(names(&e2e), spec_names(&spec, "end_to_end"));
            assert_eq!(names(&layers), spec_names(&spec, "per_layer"));
            assert!(e2e.iter().all(|(_, v, _)| *v > 0.0), "{name}: {e2e:?}");
        }
    }

    #[test]
    fn metrics_print_as_json_numbers() {
        let m = [("a", 1.5, "s"), ("b", f64::NAN, "ms")];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
    }
}
