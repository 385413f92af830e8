//! Command line of the df3 benchmark.
//!
//! ```text
//! perfbench --workload <district_week|heat_season|branch_sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Every metric, with its unit, clock and
//! direction, goes to standard error. A traced run also writes its
//! layer split and call spans to a JSON trace file under
//! `.bench_build/perfbench/`.

use perfbench::metrics;
use perfbench::runner::{self, span_table, Options, Outcome};
use perfbench::workload::{Scale, Workload, RUN_SPANS, SETUP_SPANS};
use simcore::telemetry::export::{jnum, jstr};
use std::fmt::Write as _;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                    None => v.parse(),
                };
                seed = Some(parsed.map_err(|_| format!("--seed: not an integer: {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

fn metric_json(rows: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, v)| {
            let d = metrics::def(name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(name),
                jnum(*v),
                jstr(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn catalogue_json(rows: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, v)| {
            let d = metrics::def(name);
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"clock\": {}, \"better\": {}}}",
                jstr(name),
                jnum(*v),
                jstr(d.unit),
                jstr(d.clock.name()),
                jstr(d.better.name())
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

/// The trace file: layer split, mean span costs, every traced call, and
/// the simulated outcome with its determinism digests.
fn trace_json(opts: &Options, out: &Outcome, nproc: usize) -> String {
    let traced: Vec<_> = out.reps.iter().filter(|r| r.traced).collect();
    let total: f64 = out.layers.iter().map(|l| l.self_s).sum();
    let layers: Vec<String> = out
        .layers
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": {}, \"self_s\": {}, \"share\": {}, \"estimate\": {}}}",
                jstr(l.name),
                jnum(l.self_s),
                jnum(l.self_s / total),
                l.estimate
            )
        })
        .collect();
    let spans: Vec<String> = span_table(&traced)
        .iter()
        .map(|(name, calls, c)| {
            format!(
                "{{\"name\": {}, \"calls_per_rep\": {}, \"cpu_s\": {}, \"wall_s\": {}}}",
                jstr(name),
                jnum(*calls as f64 / traced.len().max(1) as f64),
                jnum(c.cpu_s),
                jnum(c.wall_s)
            )
        })
        .collect();
    let mut calls = String::new();
    for (i, r) in out.reps.iter().enumerate().filter(|(_, r)| r.traced) {
        for s in &r.spans {
            let _ = write!(
                calls,
                "{}{{\"rep\": {i}, \"parent\": \"rep\", \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"cpu_s\": {}}}",
                if calls.is_empty() { "" } else { ", " },
                jstr(s.name),
                jnum(s.start_s),
                jnum(s.start_s + s.cost.wall_s),
                jnum(s.cost.cpu_s)
            );
        }
    }
    let first = out
        .reps
        .iter()
        .find(|r| !r.traced)
        .expect("a run starts untraced");
    let digests: Vec<String> = first
        .digests
        .iter()
        .map(|d| format!("\"{d:016x}\""))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| jstr(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \
         \"reps\": {{\"untraced\": {}, \"traced\": {}}}, \
         \"end_to_end\": {}, \"per_layer\": {}, \
         \"layers\": {{\"total_cpu_s\": {}, \"rows\": [{}]}}, \
         \"spans\": [{}], \"calls\": [{calls}], \
         \"sim\": {{\"edge_p99_ms\": {}, \"edge_miss_ratio\": {}, \"dcc_slowdown_mean\": {}, \
         \"resistive_share\": {}, \"leg_digests\": [{}]}}, \"failures\": [{}]}}\n",
        jstr(opts.workload.name()),
        opts.seed,
        out.reps.len() - traced.len(),
        traced.len(),
        catalogue_json(&out.end_to_end),
        catalogue_json(&out.per_layer),
        jnum(total),
        layers.join(", "),
        spans.join(", "),
        jnum(first.sim.edge_p99_ms),
        jnum(first.sim.edge_miss_ratio),
        jnum(first.sim.dcc_slowdown_mean),
        jnum(first.sim.resistive_share),
        digests.join(", "),
        failures.join(", "),
    )
}

fn report(out: &Outcome) {
    for (i, r) in out.reps.iter().enumerate() {
        let run = r.cost(&RUN_SPANS);
        eprintln!(
            "rep {i:>3}{} setup {:.4} s  run {:.4} s cpu {:.4} s wall  peak {:.1} MB",
            if r.traced { " traced" } else { "       " },
            r.cost(&SETUP_SPANS).cpu_s,
            run.cpu_s,
            run.wall_s,
            r.peak_rss_bytes as f64 / 1e6
        );
    }
    let mut rows = out.end_to_end.clone();
    rows.extend(out.per_layer.iter().copied());
    eprintln!(
        "{:<32} {:>16} {:<7} {:<5} better",
        "metric", "value", "unit", "clock"
    );
    for (name, v) in rows {
        let d = metrics::def(name);
        eprintln!(
            "{name:<32} {v:>16.6} {:<7} {:<5} {}",
            d.unit,
            d.clock.name(),
            d.better.name()
        );
    }
    if !out.layers.is_empty() {
        let total: f64 = out.layers.iter().map(|l| l.self_s).sum();
        eprintln!("\nCPU per traced repetition: {total:.4} s");
        for l in &out.layers {
            eprintln!(
                "  {:<30} {:>9.4} s {:>6.1} %{}",
                l.name,
                l.self_s,
                100.0 * l.self_s / total,
                if l.estimate { "  (estimate)" } else { "" }
            );
        }
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The benchmark itself is single-threaded; cap any parallel kernel
    // the program may start at the machine's core count.
    rayon::set_num_threads(nproc);
    let out = match runner::run(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: cannot read host gauges: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&out);
    if opts.trace {
        let dir = ".bench_build/perfbench";
        let path = format!(
            "{dir}/{}-seed{}-trace.json",
            opts.workload.name(),
            opts.seed
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace_json(&opts, &out, nproc)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }
    let shown = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metric_json(shown)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args(
            "--workload heat_season --seed 0xDF3_2018 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::HeatSeason);
        assert_eq!(a.seed, 0xDF3_2018);
        assert!(a.trace && a.scale == Scale::Full);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload heat_season --seed x --seconds 1 --trace 0",
            "--workload heat_season --seed 1 --seconds 0 --trace 0",
            "--workload heat_season --seed 1 --seconds 1 --trace 2",
            "--workload heat_season --seed 1 --seconds 1",
            "--workload heat_season --seed 1 --seconds 1 --trace 0 --bogus",
            "--workload heat_season --seed 1 --seconds 1 --trace 0 --smoke",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
