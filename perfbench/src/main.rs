//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_shl|serve_unique|serve_wire_zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance and a summary, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric untraced, every per-layer metric traced. Exits nonzero on any
//! correctness or reconciliation failure. See `perfbench/README.md`.

mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Outcome;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_revision() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = std::fs::read_to_string(format!("{root}/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!("{root}/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Writes the run's spans as Chrome trace-event JSON under
/// `perfbench/out/` and notes the path.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{workload}_seed{seed}.json");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => out.note("trace_file", format!("perfbench/out/trace_{workload}_seed{seed}.json")),
        Err(e) => out.fail(format!("writing {path}: {e}")),
    }
    out.note("trace_spans", tracer.spans().len());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("traced", args.traced);
    out.note("host_cores", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    out.note("git_revision", git_revision());
    out.note("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    match args.workload.as_str() {
        "train_shl" => train::run(args.seed, args.seconds, args.traced, &mut out),
        "serve_unique" | "serve_wire_zipf" => {
            serve::run(&args.workload, args.seed, args.seconds, args.traced, &mut out)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    if !out.metrics.contains_key("peak_rss_mib") {
        out.set("peak_rss_mib", peak_rss_mib());
    }

    // Everything measured goes to the summary; the result line carries the
    // catalogue of this mode.
    for (key, value) in &out.notes {
        println!("# {key}: {value}");
    }
    let (e2e, layers) = (report::end_to_end(), report::per_layer());
    for (name, unit) in e2e.iter().chain(&layers) {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<40} {v:>16.4} {unit}");
        }
    }
    let catalogue = if args.traced { layers } else { e2e };
    let line = report::result_line(&mut out, &catalogue, args.traced);
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{line}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
