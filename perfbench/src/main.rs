//! The dimensioning pipeline's benchmark: three seeded workloads through the
//! public APIs of `cps-apps`/`cps-core`, `cps-map`, `cps-verify`,
//! `cps-sched` and `cps-admit`, every answer checked.
//!
//! ```text
//! taskset -c 0 cargo run --quiet --release --offline \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload <case_study_dimensioning|admission_churn|fleet_sweep> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics. The
//! traced run (`--trace 1`) records spans around every other op's calls
//! into the layers and prints the per-layer metrics, span self times
//! included; it only attributes time. Each run prints a table of every
//! metric with its unit and sample count, writes its record (and, traced,
//! its spans) under `perfbench/out/`, and ends with one JSON line holding
//! the declared metrics of `BENCHMARK.json`.
//!
//! `BENCHMARK.json` pins each run to one CPU. On a 2-vCPU virtual machine,
//! every hand-off between two threads on different CPUs costs a wake-up
//! whose latency switches between regimes for minutes at a time: unpinned,
//! the same admission run measured a median request of 10 µs or of 30 µs,
//! and the case-study op varied by 12% across runs. Pinned, both repeat
//! within 5%. Engine pools are sized to the CPUs the process may use, so a
//! pinned run measures the engines' serial paths.
//!
//! Percentiles use the nearest-rank rule and are reported only with at
//! least ten samples beyond them. Seed 9001 is held out: tune on other
//! seeds, and confirm a claimed gain on it.

mod admission;
mod case_study;
mod fleet_sweep;
mod gen;
mod harness;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Extra, Gates, OpSample, Outcome};
use stats::{median, percentile};
use trace::{self_time_by_name, Tracer};

const USAGE: &str = "usage: perfbench --workload <case_study_dimensioning|admission_churn|\
fleet_sweep> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// The declared end-to-end metrics (`--trace 0`): name and unit. The
/// record adds the tail percentiles and peak memory, which vary too much
/// from seed to seed to gate on: a seed that reaches a model the warm-up
/// did not grows the verifier's buffers for the rest of the run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_us", "us")];

/// The declared per-layer metrics (`--trace 1`): name and unit. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("core.profile_us", "us"),
    ("map.first_fit_self_us", "us"),
    ("map.minimize_self_us", "us"),
    ("map.queries", "count"),
    ("map.memo_hits", "count"),
    ("map.quick_rejects", "count"),
    ("map.anti_monotone_rejects", "count"),
    ("map.baseline_accepts", "count"),
    ("map.exact_verifies", "count"),
    ("map.cheap_ratio", "ratio"),
    ("map.tt_evictions", "count"),
    ("map.nodes_explored", "count"),
    ("map.degraded_accepts", "count"),
    ("map.deferred", "count"),
    ("verify.time_us", "us"),
    ("verify.calls", "count"),
    ("verify.intern_probes", "count"),
    ("verify.hash_hits", "count"),
    ("verify.hash_slot_updates", "count"),
    ("verify.rehashes", "count"),
    ("verify.ns_per_probe", "ns"),
    ("verify.us_per_call", "us"),
    ("verify.share", "ratio"),
    ("admit.request_self_us", "us"),
    ("admit.stats_us", "us"),
    ("admit.snapshot_us", "us"),
    ("admit.snapshot_bytes", "bytes"),
    ("admit.spawn_warm_us", "us"),
    ("admit.restarts", "count"),
    ("admit.recovery_losses", "count"),
    ("sched.cosim_us", "us"),
    ("sched.scenarios", "count"),
    ("op.self_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Span name → the per-layer metric its self time (µs per traced op) feeds.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("op", "op.self_us"),
    ("core.profile", "core.profile_us"),
    ("map.first_fit", "map.first_fit_self_us"),
    ("map.minimize", "map.minimize_self_us"),
    ("verify", "verify.time_us"),
    ("sched.cosim", "sched.cosim_us"),
    ("admit.request", "admit.request_self_us"),
];

const WORKLOADS: [&str; 3] = ["case_study_dimensioning", "admission_churn", "fleet_sweep"];

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Identifies the build, so counters are only compared within one build.
fn build_id() -> String {
    let exe = std::env::current_exe().expect("own executable path");
    let meta = std::fs::metadata(exe).expect("own executable metadata");
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{modified:x}", meta.len())
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// One printed metric: name, unit, value and the samples behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// Throughput as the median over ten consecutive blocks of the run's ops,
/// so one slow stretch — a host hiccup, a rare heavy op — does not set it.
fn ops_per_s(ops: &[OpSample]) -> f64 {
    const BLOCKS: usize = 10;
    let n = ops.len();
    let rates: Vec<f64> = (0..BLOCKS)
        .map(|k| {
            let (lo, hi) = (k * n / BLOCKS, (k + 1) * n / BLOCKS);
            let start = if lo == 0 { 0.0 } else { ops[lo - 1].at_s };
            (hi - lo) as f64 / (ops[hi - 1].at_s - start)
        })
        .collect();
    median(&rates)
}

/// The declared end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let ops: Vec<f64> = out.ops.iter().map(|o| o.us).collect();
    let values = [
        (median(&out.setup_s), out.setup_s.len()),
        (ops_per_s(&out.ops), ops.len()),
        (
            percentile(&ops, 50.0).expect("every run times at least 21 ops"),
            ops.len(),
        ),
        (out.peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

/// The declared per-layer metrics of a traced run: span self times per
/// traced op, the workload's own counters and round trips, and the tracing
/// overhead measured against the run's untraced ops.
fn per_layer(out: &Outcome, tracer: &Tracer) -> Vec<Metric> {
    let spans = tracer.spans();
    let traced: Vec<f64> = out.ops.iter().filter(|o| o.traced).map(|o| o.us).collect();
    let untraced: Vec<f64> = out.ops.iter().filter(|o| !o.traced).map(|o| o.us).collect();
    let mut layer = out.layer.clone();
    let self_ns = self_time_by_name(spans);
    for (span, metric) in SPAN_METRICS {
        let ns = self_ns.get(span).copied().unwrap_or(0);
        layer.insert(metric, ns as f64 / 1e3 / traced.len() as f64);
    }
    let op_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    let verify_ns = self_ns.get("verify").copied().unwrap_or(0);
    layer.insert("verify.share", verify_ns as f64 / op_ns.max(1) as f64);
    let (t, u) = (median(&traced), median(&untraced));
    layer.insert("trace.overhead_share", (t - u) / u);
    for &(name, value) in &out.det_counters {
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            layer.insert(name, value as f64);
        }
    }
    let count = |name| {
        out.det_counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let queries = count("map.queries");
    let cheap = if queries == 0 {
        0.0
    } else {
        count("map.decided_cheaply") as f64 / queries as f64
    };
    layer.insert("map.cheap_ratio", cheap);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layer.get(name).copied().unwrap_or(0.0),
            samples: traced.len(),
        })
        .collect()
}

/// One metric per line: name, value, unit and the samples behind it.
fn metric_table(metrics: &[Metric], extra: &[Extra]) -> String {
    let rows = metrics
        .iter()
        .map(|m| (m.name, m.unit, Some(m.value), m.samples))
        .chain(extra.iter().map(|e| (e.name, e.unit, e.value, e.samples)));
    let mut s = String::new();
    for (name, unit, value, samples) in rows {
        let value = value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        let _ = writeln!(s, "{name:<28} {value:>16} {unit:<6} ({samples} samples)");
    }
    s
}

/// The run record: how it was run, every metric with its sample count, and
/// the counters.
fn record(args: &Args, ctx: &Ctx, out: &Outcome, metrics: &[Metric], correct: bool) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"workload\": \"{}\",", args.workload);
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"trace\": {},", u8::from(args.trace));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(j, "  \"nproc\": {nproc},");
    let _ = writeln!(j, "  \"pool_width\": {},", ctx.pool_width);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let _ = writeln!(j, "  \"build_profile\": \"{profile}\",");
    let _ = writeln!(
        j,
        "  \"percentile_rule\": \"nearest rank; reported only with at least {} samples beyond\",",
        stats::MIN_BEYOND
    );
    let _ = writeln!(j, "  \"seconds\": {},", args.seconds);
    let setups: Vec<String> = out.setup_s.iter().map(|&v| json_num(v)).collect();
    let _ = writeln!(j, "  \"setup_samples_s\": [{}],", setups.join(", "));
    let _ = writeln!(j, "  \"timed_s\": {},", json_num(out.timed_s));
    let _ = writeln!(j, "  \"attempted\": {},", out.attempted);
    let _ = writeln!(j, "  \"failed\": {},", out.failed);
    let _ = writeln!(j, "  \"correct\": {correct},");
    j.push_str("  \"metrics\": [\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| (m.name, m.unit, Some(m.value), m.samples))
        .chain(out.extra.iter().map(|e| (e.name, e.unit, e.value, e.samples)))
        .map(|(name, unit, value, samples)| {
            let value = value.map_or_else(|| "null".to_string(), json_num);
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"value\": {value}, \"samples\": {samples}}}"
            )
        })
        .collect();
    j.push_str(&rows.join(",\n"));
    j.push_str("\n  ],\n");
    let counters = |list: &[(&str, u64)]| {
        list.iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        j,
        "  \"deterministic_counters\": {{{}}},",
        counters(&out.det_counters)
    );
    let _ = writeln!(
        j,
        "  \"nondeterministic_counters\": {{{}}}",
        counters(&out.nondet_counters)
    );
    j.push_str("}\n");
    j
}

/// Compares the deterministic counters with those an earlier run of the
/// same build, workload and seed left behind (traced or not), or leaves
/// them for the next run.
fn check_counters(args: &Args, out: &Outcome, gates: &mut Gates) {
    let text: String = out
        .det_counters
        .iter()
        .map(|(n, v)| format!("{n} {v}\n"))
        .collect();
    gates.check(!out.det_counters.is_empty(), || {
        "no deterministic counters".into()
    });
    let path = out_dir().join(format!(
        "counters-{}-seed{}-{}.txt",
        args.workload,
        args.seed,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => gates.check(earlier == text, || {
            format!(
                "deterministic counters differ from {}:\n{earlier}---\n{text}",
                path.display()
            )
        }),
        Err(_) => std::fs::write(&path, text).expect("writes the counter file"),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin every engine's pool to the parallelism this process may use (their
    // default), so an inherited CPS_THREADS cannot change what is measured.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(cps_par::THREADS_ENV, nproc.to_string());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        pool_width: cps_par::Pool::from_env().threads(),
        tracer: Tracer::new(),
        gates: Gates::default(),
    };
    let mut out = match args.workload {
        "case_study_dimensioning" => case_study::run(&mut ctx, started),
        "admission_churn" => admission::run(&mut ctx, started),
        _ => fleet_sweep::run(&mut ctx, started),
    };
    let ops: Vec<f64> = out.ops.iter().map(|o| o.us).collect();
    let tails = [("op_p90_us", 90.0), ("op_p99_us", 99.0)].map(|(name, p)| Extra {
        name,
        unit: "us",
        value: percentile(&ops, p),
        samples: ops.len(),
    });
    let rss = Extra {
        name: "peak_rss_mb",
        unit: "MB",
        value: Some(out.peak_rss_mb),
        samples: 1,
    };
    out.extra.splice(0..0, tails.into_iter().chain([rss]));

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("creates perfbench/out");
    check_counters(&args, &out, &mut ctx.gates);
    let metrics = if args.trace {
        let spans = dir.join(format!("{}.spans.tsv", args.workload));
        std::fs::write(spans, ctx.tracer.render()).expect("writes the spans");
        per_layer(&out, &ctx.tracer)
    } else {
        end_to_end(&out)
    };
    let correct = ctx.gates.passed() && out.failed == 0;
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(dir.join(name), record(&args, &ctx, &out, &metrics, correct))
        .expect("writes the run record");

    println!(
        "{} seed {} trace {}: {} ops in {:.3} s, nproc {nproc}, pool width {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.timed_s,
        ctx.pool_width
    );
    let extra = if args.trace { &[][..] } else { &out.extra[..] };
    print!("{}", metric_table(&metrics, extra));
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet_sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "fleet_sweep",
                seed: 7,
                seconds: 3,
                trace: true
            })
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "fleet_sweep", "--trace", "2"]).is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads the
    /// program prints and runs.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("key present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        assert_eq!(declared("workloads"), WORKLOADS.map(String::from).to_vec());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is declared with unit {unit}"
            );
        }
    }
}
