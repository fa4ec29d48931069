//! The Buzz benchmark: end-to-end host-time and air-time metrics over five
//! workloads, and a traced run with per-layer metrics.
//!
//! ```text
//! buzz-perfbench --workload <inventory|large_k|large_k16|fleet|faulted> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced).  Units run in a worker process (the same
//! executable with `--worker`) so a unit that overruns its deadline can be
//! killed; see `README.md` in this directory.

mod calibrate;
mod report;
mod supervisor;
mod trace;
mod wire;
mod workload;

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use calibrate::Calibration;
use report::Run;
use supervisor::{Reply, Supervisor};
use workload::{Bench, SetupStats, UnitResult, Workload};

/// Every worker times its set-up in batches of back-to-back set-ups, each
/// batch about `SETUP_BATCH_SECONDS` long (at most `SETUP_MAX_BATCH`
/// set-ups), for at least `SETUP_MIN_BATCHES` batches and
/// `SETUP_MIN_SECONDS`, so a set-up of a few hundred nanoseconds reads as
/// steadily as one of many milliseconds.  Each batch's time is scaled by the
/// host-speed calibration around it.  A pass's set-up time is the median
/// over its batches; `setup_s` is the fastest pass's.
const SETUP_MIN_BATCHES: usize = 5;
const SETUP_BATCH_SECONDS: f64 = 0.002;
const SETUP_MAX_BATCH: usize = 1000;
const SETUP_MIN_SECONDS: f64 = 0.2;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Serve units on stdin instead of coordinating.
    worker: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--worker" {
            worker = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        worker,
    })
}

/// Sets up the workload repeatedly (see `SETUP_MIN_BATCHES`) and returns
/// the last set-up, its figures, and the seconds per set-up of every batch.
fn measure_setup(
    args: &Args,
    units: usize,
    calibration: &mut Calibration,
) -> Result<(Bench, SetupStats, Vec<f64>), String> {
    let setup = || Bench::setup(args.workload, args.seed, units);
    let cold = Instant::now();
    let (mut bench, mut stats) = setup()?;
    let per_batch = ((SETUP_BATCH_SECONDS / cold.elapsed().as_secs_f64()).ceil() as usize)
        .clamp(1, SETUP_MAX_BATCH);
    let mut batches = Vec::new();
    // The first batch's calibration starts here, after the cold set-up.
    calibration.factor(0.0);
    let started = Instant::now();
    while batches.len() < SETUP_MIN_BATCHES || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        // Earlier set-ups are dropped outside the timed batch.
        drop(bench);
        let mut kept = Vec::with_capacity(per_batch);
        let t = Instant::now();
        for _ in 0..per_batch {
            kept.push(setup()?);
        }
        let batch_ms = t.elapsed().as_secs_f64() * 1e3;
        batches.push(batch_ms / 1e3 / per_batch as f64 * calibration.factor(batch_ms));
        (bench, stats) = kept.pop().expect("a batch holds at least one set-up");
    }
    Ok((bench, stats, batches))
}

/// Worker side: set up (repeatedly, timed), report, then run each unit
/// index read from stdin and answer with one line.  Untraced, host times are
/// scaled by the host-speed calibration around each unit.
fn serve(args: &Args) -> Result<(), String> {
    let mut calibration = Calibration::start();
    let units = args.workload.units(args.seconds);
    let (mut bench, stats, batches) = measure_setup(args, units, &mut calibration)?;
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| format!("worker output: {e}");
    writeln!(out, "{}", wire::encode_setup(&batches, &stats)).map_err(io)?;
    out.flush().map_err(io)?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("worker input: {e}"))?;
        let index: usize = line
            .trim()
            .parse()
            .map_err(|_| format!("bad unit index {line:?}"))?;
        let mut unit = bench.run(index, args.trace)?;
        // A traced run's per-layer times come from raw spans, so its units
        // stay raw too.
        if !args.trace {
            unit.scale_host_time(calibration.factor(unit.host_ms));
        }
        writeln!(out, "{}", wire::encode_unit(index, &unit)).map_err(io)?;
        out.flush().map_err(io)?;
    }
    Ok(())
}

/// Coordinator side: runs every unit through a supervised worker.
fn coordinate(args: &Args) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let units = args.workload.units(args.seconds);
    // A traced unit also runs untraced for comparison.
    let deadline = args.workload.deadline() * if args.trace { 2 } else { 1 };
    let deadline_ms = deadline.as_secs_f64() * 1e3;
    let mut supervisor = Supervisor::new(|| {
        let mut c = Command::new(&exe);
        c.args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--worker");
        c
    });
    let passes = if args.trace {
        1
    } else {
        args.workload.passes()
    };
    let mut setup_s = Vec::with_capacity(passes);
    let mut setup = SetupStats::default();
    let mut results: Vec<Option<UnitResult>> = vec![None; units];
    let mut cut = vec![false; units];
    let mut problems = Vec::new();
    for _ in 0..passes {
        // Each pass starts a fresh worker, whose set-up is measured anew.
        supervisor.stop();
        let (batches, stats) = wire::decode_setup(&supervisor.start()?)?;
        setup_s.push(report::percentile(&batches, 50.0));
        setup = stats;
        for index in 0..units {
            if cut[index] {
                continue;
            }
            let unit = match supervisor.request(index, deadline)? {
                Reply::Line(line) => {
                    let (got, unit) = wire::decode_unit(&line)?;
                    if got != index {
                        return Err(format!("asked for unit {index}, worker answered {got}"));
                    }
                    unit
                }
                Reply::Overrun => {
                    eprintln!(
                        "unit {index} passed its {deadline_ms} ms deadline; worker killed, counted as failed"
                    );
                    cut[index] = true;
                    UnitResult::cut(deadline_ms, args.workload.offered(args.seed, index))
                }
                Reply::Crashed { elapsed_ms } => {
                    eprintln!(
                        "unit {index}: worker died after {elapsed_ms:.1} ms; counted as failed"
                    );
                    cut[index] = true;
                    UnitResult::cut(elapsed_ms, args.workload.offered(args.seed, index))
                }
            };
            // A unit cut in any pass counts as cut.
            match &mut results[index] {
                Some(kept) if !cut[index] => {
                    if let Err(e) = kept.repeat(&unit) {
                        problems.push(format!("unit {index}: {e}"));
                    }
                }
                slot => *slot = Some(unit),
            }
        }
    }
    let run = Run {
        setup_s,
        setup,
        units: results.into_iter().flatten().collect(),
        cut,
        problems,
    };
    supervisor.stop();
    if supervisor.workers_started() > passes {
        eprintln!("workers started: {}", supervisor.workers_started());
    }
    Ok(run)
}

/// Where results of earlier runs of this executable are kept, keyed so a
/// rebuilt executable starts afresh.
fn history_file(args: &Args) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let built = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let dir = exe.parent()?.join("perfbench-history");
    Some(dir.join(format!(
        "{}-seed{}-s{}-exe{}-{}.txt",
        args.workload.name(),
        args.seed,
        args.seconds,
        meta.len(),
        built
    )))
}

/// Checks each completed unit's air-clock results (and, traced, its
/// counters) against earlier runs of the same seed, then records them.  A
/// unit cut at its deadline is neither checked nor recorded, so one cut on a
/// loaded host cannot mark later runs of the seed wrong.  Returns the
/// problems.
fn check_repeatable(args: &Args, run: &Run) -> Vec<String> {
    let Some(path) = history_file(args) else {
        return vec!["cannot locate the run history next to the executable".into()];
    };
    // One line per recorded unit: `<air|counters> <index> <hash>`.
    let mut kept: std::collections::BTreeMap<(String, usize), String> =
        std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let mut f = l.split(' ');
                let (key, index, hash) = (f.next()?, f.next()?.parse().ok()?, f.next()?);
                Some(((key.to_string(), index), hash.to_string()))
            })
            .collect();
    let mut now = vec![("air", run.fingerprints(false))];
    if args.trace {
        now.push(("counters", run.fingerprints(true)));
    }
    let mut problems = Vec::new();
    for (key, hashes) in now {
        for (index, hash) in hashes.into_iter().enumerate() {
            let Some(hash) = hash else { continue };
            let value = format!("{hash:016x}");
            match kept.get(&(key.to_string(), index)) {
                Some(old) if *old != value => problems.push(format!(
                    "unit {index}: {key} results differ from an earlier run of seed {}: {old} vs {value}",
                    args.seed
                )),
                _ => {
                    kept.insert((key.to_string(), index), value);
                }
            }
        }
    }
    let body: String = kept
        .iter()
        .map(|((k, i), v)| format!("{k} {i} {v}\n"))
        .collect();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, body));
    if let Err(e) = written {
        problems.push(format!("cannot record run history: {e}"));
    }
    problems
}

/// Writes the traced run's spans, one per line, next to the executable.
fn write_spans(args: &Args, run: &Run) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let mut body = String::new();
    for s in run.units.iter().flat_map(|u| &u.spans) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        body.push_str(&format!(
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.session
        ));
    }
    std::fs::write(&path, body).map_err(|e| e.to_string())?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        return match serve(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let run = match coordinate(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems: Vec<String> = run.problems().into_iter().map(str::to_string).collect();
    problems.extend(check_repeatable(&args, &run));
    for p in &problems {
        eprintln!("correctness check failed: {p}");
    }
    let metrics = if args.trace {
        let (traced_ms, untraced_ms) = run.tracing_cost_ms();
        let delivered: f64 = run.units.iter().map(|u| u.delivered as f64).sum();
        if traced_ms > 0.0 && untraced_ms > 0.0 {
            let traced = delivered / (traced_ms / 1e3);
            let untraced = delivered / (untraced_ms / 1e3);
            eprintln!(
                "tracing overhead: msgs_per_host_s untraced {untraced:.1} - traced {traced:.1} = {:.1} msg/s ({:+.2} % host time)",
                untraced - traced,
                (traced_ms / untraced_ms - 1.0) * 100.0
            );
        }
        match write_spans(&args, &run) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        run.per_layer()
    } else {
        run.end_to_end()
    };
    for m in &metrics {
        eprintln!("{:>36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::json_line(problems.is_empty(), run.attempted(), run.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = parse_args(&strings(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.worker),
            (Workload::Fleet, 7, 3, true, false)
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "fleet",
            "--seed",
            "x",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "fleet", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }
}
