//! Benchmark of peer consistent query answering, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_ground|cold_search|warm_read|live_update> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The process exits non-zero when an
//! answer is wrong or the arguments are invalid. See `README.md` for the
//! workloads and metrics.

mod clock;
mod gen;
mod layers;
mod oracle;
mod stats;
mod workload;

use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Render the result line. Values keep every digit; a metric without
/// samples would be `NaN`, which JSON cannot carry, so it is an error.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} has no samples"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A summary for people: sample counts, quartiles and the 99th
    // percentile per kind of operation over the whole run, raw and scaled by
    // the host's speed, and the reference kernel's times. Under `--trace 1` these are the traced
    // latencies, which against an untraced run give the tracing overhead.
    let kinds: [(&str, workload::Kind); 5] = [
        ("cold", |w| &w.cold),
        ("naive", |w| &w.naive),
        ("warm", |w| &w.warm),
        ("commit", |w| &w.commit),
        ("fresh", |w| &w.fresh),
    ];
    for (kind, of) in kinds {
        let raw: Vec<f64> = of(&outcome.samples).iter().map(|s| s.ms).collect();
        let scaled = outcome.scale.apply(of(&outcome.samples));
        let q = |v: &[f64], p| stats::quantile(v, p).unwrap_or(f64::NAN);
        eprintln!(
            "{kind:>6}: n={:<6} raw p25={:.4} p50={:.4} p75={:.4} p99={:.4} ms; scaled p50={:.4} p99={:.4} ms",
            raw.len(),
            q(&raw, 0.25),
            q(&raw, 0.5),
            q(&raw, 0.75),
            q(&raw, 0.99),
            q(&scaled, 0.5),
            q(&scaled, 0.99)
        );
    }
    eprintln!(
        "kernel: n={} p25={:.4} p50={:.4} p75={:.4} ms (reference {} ms)",
        outcome.kernel.len(),
        stats::quantile(&outcome.kernel, 0.25).unwrap_or(f64::NAN),
        stats::quantile(&outcome.kernel, 0.5).unwrap_or(f64::NAN),
        stats::quantile(&outcome.kernel, 0.75).unwrap_or(f64::NAN),
        clock::REFERENCE_MS
    );
    let metrics = if args.trace {
        outcome.layers.clone()
    } else {
        workload::end_to_end(&outcome)
    };
    let correct = outcome.failed == 0;
    match result_line(correct, outcome.attempted, outcome.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
