//! The repository benchmark. Measures the system from outside only, by
//! timing calls into each crate's public functions.
//!
//! ```text
//! bcbpt-benchmark [run|trace] --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! `run` (or `--trace 0`, the default) is the timed run: end-to-end metrics
//! with all tracing off. `trace` (or `--trace 1`) is the separate traced
//! run: per-layer metrics, the benchmark's own spans written as a
//! Chrome-trace file at exit. Both run the correctness checks, print every
//! metric by name with unit, sample count, median and quartiles, write a
//! result record under `benchmark/out/`, and end with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. A failed check
//! makes the exit code non-zero.

mod catalogue;
mod check;
mod gen;
mod host;
mod layers;
mod measure;
mod report;
mod serve_io;
mod spans;
mod staged;
mod timed;

use gen::WorkloadKind;
use host::Fingerprint;
use report::Report;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bcbpt-benchmark [run|trace] --workload <{}> [--seed S] [--seconds T] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            traced = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WorkloadKind::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not a positive number"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        traced,
    })
}

fn run(
    args: &Args,
    bench_dir: &Path,
    host: &Fingerprint,
    report: &mut Report,
) -> Result<(), String> {
    // `serve-shards` runs the daemon with its default worker count, one
    // per core: on a one-core host each two-shard job would serialize and
    // the workload would silently measure something else.
    if args.workload == WorkloadKind::ServeShards && host.nproc < 2 {
        return Err(format!(
            "refusing to start serve-shards: this host offers {} core, so ServeConfig::new \
             defaults to one worker and every two-shard job would serialize — a different \
             workload under the same name. Host: {}",
            host.nproc,
            host.describe()
        ));
    }
    match (args.traced, args.workload) {
        (false, WorkloadKind::ServeShards) => timed::serve(args.seed, bench_dir, report),
        (false, kind) => timed::campaign(kind, args.seed, args.seconds, bench_dir, report),
        (true, kind) => layers::trace(kind, args.seed, bench_dir, report),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = Fingerprint::collect();
    let mut report = Report::new(args.workload.name(), args.seed, args.seconds, args.traced);
    if let Err(error) = run(&args, bench_dir, &host, &mut report) {
        // No result line: the run did not measure anything it can stand
        // behind.
        eprintln!("bcbpt-benchmark: {error}");
        return ExitCode::from(1);
    }
    report.close();
    print!("{}", report.render(&host));
    match report.write_record(&bench_dir.join("out"), &host) {
        Ok(path) => println!("record {}", path.display()),
        Err(error) => {
            eprintln!("bcbpt-benchmark: result record: {error}");
            return ExitCode::from(1);
        }
    }
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_subcommand_form_agree() {
        let a = args(&[
            "--workload",
            "paper-slice",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, WorkloadKind::PaperSlice);
        assert_eq!((a.seed, a.seconds, a.traced), (9, 3.0, true));
        let b = args(&["trace", "--workload", "paper-slice", "--seed", "9"]).unwrap();
        assert!(b.traced && b.seed == 9);
        let c = args(&["run", "--workload", "serve-shards"]).unwrap();
        assert!(!c.traced);
        assert_eq!(c.seed, gen::DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper-slice", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper-slice", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "paper-slice", "--seed"]).is_err());
        assert!(args(&["--workload", "paper-slice", "--bogus", "1"]).is_err());
    }
}
