//! `gridrm-benchmark --workload <name> [--seed S] [--seconds T]
//! [--trace 0|1] [--selfcheck]`: run one workload, print every metric
//! by name with unit and bound, and end with one JSON result line.

use gridrm_benchmark::host::Pin;
use gridrm_benchmark::report::{self, Config, Outcome};
use gridrm_benchmark::workload::Workload;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str =
    "gridrm-benchmark --workload <cached_point|realtime_snmp|coarse_scan|mixed_churn> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] [--selfcheck]";

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`: 10 s ⇒ R = 100 replays.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = true;
    let mut selfcheck = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be 1..=60".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        selfcheck,
    })
}

/// `$CARGO_TARGET_DIR/gridrm-benchmark/spans-<workload>.jsonl`
/// (`target/…` when the variable is unset).
fn write_spans(outcome: &Outcome) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("gridrm-benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.jsonl", outcome.config.workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in &outcome.spans {
        writeln!(out, "{}", span.to_json())?;
    }
    out.flush()?;
    Ok(path)
}

fn run(args: &Args) -> std::io::Result<bool> {
    // Before any other thread exists, so every thread inherits the mask.
    let pin = Pin::to_one_cpu();
    let config = Config::full(
        args.workload,
        args.seed,
        args.seconds,
        args.trace && !args.selfcheck,
    );
    let outcome = report::run(config, &pin)?;
    outcome.print();
    let mut ok = outcome.correct;
    if args.selfcheck {
        let again = report::run(config, &pin)?;
        let disagreements = report::selfcheck(&outcome, &again);
        for d in &disagreements {
            println!("  DISAGREES {d}");
        }
        ok &= again.correct && disagreements.is_empty();
    }
    if !outcome.spans.is_empty() {
        let path = write_spans(&outcome)?;
        println!(
            "{} spans of traced replay 0 in {}",
            outcome.spans.len(),
            path.display()
        );
    }
    println!("{}", outcome.json_line(args.trace));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gridrm-benchmark: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gridrm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
