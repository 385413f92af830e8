//! `df3-experiments report` — run a preset once with telemetry on and
//! emit all three export formats.
//!
//! ```text
//! df3-experiments report --preset district_winter --hours 24 --out runs/
//! df3-experiments report --preset small_winter --check
//! ```
//!
//! Writes `<out>/<preset>.report.jsonl`, `<out>/<preset>.trace.json`
//! (load it in Perfetto or `chrome://tracing`), and
//! `<out>/<preset>.prom`. `--check` additionally runs the format
//! validators and fails loudly if any document is malformed — the CI
//! telemetry leg runs in this mode.

use df3_core::report::{ExportOptions, RunReport};
use df3_core::stats::PlatformStats;
use df3_core::{Platform, PlatformConfig};
use simcore::report::Table;
use simcore::telemetry::export::json;
use simcore::time::SimDuration;
use simcore::RngStreams;
use std::time::Instant;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::Flow;

/// Parsed `report` subcommand arguments.
#[derive(Debug, Clone)]
pub struct ReportArgs {
    pub preset: String,
    pub hours: i64,
    pub out_dir: String,
    pub check: bool,
}

impl Default for ReportArgs {
    fn default() -> Self {
        ReportArgs {
            preset: "district_winter".into(),
            hours: 24,
            out_dir: ".".into(),
            check: false,
        }
    }
}

/// Parse everything after the `report` token. Unknown flags are errors
/// so typos fail loudly instead of silently running the default.
pub fn parse_args(rest: &[String]) -> Result<ReportArgs, String> {
    let mut args = ReportArgs::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--preset" => {
                args.preset = it.next().ok_or("--preset needs a value")?.clone();
            }
            "--hours" => {
                let v = it.next().ok_or("--hours needs a value")?;
                args.hours = v
                    .parse()
                    .map_err(|_| format!("--hours: not an integer: {v}"))?;
            }
            "--out" => {
                args.out_dir = it.next().ok_or("--out needs a value")?.clone();
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown report flag: {other}")),
        }
    }
    if args.hours <= 0 {
        return Err("--hours must be positive".into());
    }
    Ok(args)
}

/// Resolve a preset name to its config (telemetry not yet enabled).
pub fn preset_config(name: &str) -> Result<PlatformConfig, String> {
    match name {
        "small_winter" => Ok(PlatformConfig::small_winter()),
        "district_winter" => Ok(PlatformConfig::district_winter()),
        "small_winter_arch_b" => Ok(PlatformConfig::small_winter_arch_b(2)),
        other => Err(format!(
            "unknown preset {other} (want small_winter, district_winter, or small_winter_arch_b)"
        )),
    }
}

/// Run the preset with telemetry enabled and write the three documents.
/// Returns the rendered summary table.
pub fn run(args: &ReportArgs) -> Result<Table, String> {
    let mut cfg = preset_config(&args.preset)?;
    cfg.horizon = SimDuration::from_hours(args.hours);
    cfg.telemetry.enabled = true;
    let jobs = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    );
    let t0 = Instant::now();
    let out = Platform::new(cfg.clone()).run(&jobs);
    let run_wall_s = t0.elapsed().as_secs_f64();

    let report = RunReport::new(&args.preset, &cfg, &out);
    let opts = ExportOptions::full();
    let jsonl = report.jsonl(&opts);
    let trace = report.chrome_trace_json_with(&opts);
    let prom = report.prometheus_with(&opts);

    if args.check {
        let n = json::validate_lines(&jsonl).map_err(|e| format!("JSONL report invalid: {e}"))?;
        if n == 0 {
            return Err("JSONL report is empty".into());
        }
        json::validate(&trace).map_err(|e| format!("Chrome trace invalid: {e}"))?;
        let b = trace.matches("\"ph\":\"B\"").count();
        let e = trace.matches("\"ph\":\"E\"").count();
        if b != e {
            return Err(format!("Chrome trace unbalanced: {b} B vs {e} E events"));
        }
        for line in prom
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let ok = line
                .rsplit_once(' ')
                .is_some_and(|(_, v)| v.parse::<f64>().is_ok());
            if !ok {
                return Err(format!("Prometheus sample unparseable: {line}"));
            }
        }
        check_counters(&out.stats)?;
    }

    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create {}: {e}", args.out_dir))?;
    let write = |suffix: &str, body: &str| -> Result<String, String> {
        let path = format!("{}/{}.{suffix}", args.out_dir, args.preset);
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
        Ok(path)
    };
    let jsonl_path = write("report.jsonl", &jsonl)?;
    let trace_path = write("trace.json", &trace)?;
    let prom_path = write("prom", &prom)?;

    let mut table =
        Table::new(&format!("run report — {}", args.preset)).headers(&["artefact", "size", "note"]);
    table.row(&[
        jsonl_path,
        format!("{} B", jsonl.len()),
        format!("{} records", jsonl.lines().count()),
    ]);
    table.row(&[
        trace_path,
        format!("{} B", trace.len()),
        format!(
            "{} spans — open in Perfetto / chrome://tracing",
            trace.matches("\"ph\":\"B\"").count()
        ),
    ]);
    table.row(&[
        prom_path,
        format!("{} B", prom.len()),
        format!(
            "{} samples",
            prom.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .count()
        ),
    ]);
    table.row(&[
        "run".into(),
        format!("{run_wall_s:.1} s"),
        format!(
            "{} events, recorder {} / dropped {}, warnings {}",
            out.events,
            out.telemetry.recorder.len(),
            out.telemetry.recorder.dropped(),
            report.warnings().len()
        ),
    ]);
    Ok(table)
}

/// The run's counters agree with each other: both job ledgers close
/// (every arrival is terminal or still in flight), and no peak action
/// executed more often than the policy decided it.
fn check_counters(s: &PlatformStats) -> Result<(), String> {
    for (flow, arrived, accounted) in s.ledgers() {
        if arrived != accounted {
            return Err(format!(
                "{flow} ledger open: {arrived} arrived, {accounted} terminal or in flight"
            ));
        }
    }
    for (action, executed, decided) in [
        (
            "offload_horizontal",
            &s.offload_horizontal,
            &s.peak_decided_offload_horizontal,
        ),
        (
            "offload_vertical",
            &s.offload_vertical,
            &s.peak_decided_offload_vertical,
        ),
        ("delay", &s.delays, &s.peak_decided_delay),
    ] {
        if executed.get() > decided.get() {
            return Err(format!(
                "{action} executed {} times but decided only {}",
                executed.get(),
                decided.get()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_flag_set() {
        let rest: Vec<String> = [
            "--preset",
            "small_winter",
            "--hours",
            "6",
            "--out",
            "/tmp/x",
            "--check",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&rest).unwrap();
        assert_eq!(a.preset, "small_winter");
        assert_eq!(a.hours, 6);
        assert_eq!(a.out_dir, "/tmp/x");
        assert!(a.check);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_hours() {
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--hours".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--preset".to_string()]).is_err());
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(preset_config("mars_colony").is_err());
        assert!(preset_config("small_winter").is_ok());
    }

    #[test]
    fn check_rejects_open_ledgers_and_undecided_actions() {
        let mut s = PlatformStats::new();
        assert_eq!(check_counters(&s), Ok(()));
        s.peak_decided_offload_horizontal.inc();
        s.peak_decided_delay.inc();
        s.delays.inc();
        assert_eq!(check_counters(&s), Ok(()), "executed may lag decided");
        s.offload_vertical.inc();
        let err = check_counters(&s).unwrap_err();
        assert!(err.contains("offload_vertical"), "{err}");
        let mut s = PlatformStats::new();
        s.edge_arrived.inc();
        assert!(check_counters(&s).unwrap_err().contains("edge ledger"));
        s.edge_in_flight_end = 1;
        s.dcc_arrived.inc();
        assert!(check_counters(&s).unwrap_err().contains("dcc ledger"));
    }

    #[test]
    fn small_preset_report_round_trips_with_check() {
        let dir = std::env::temp_dir().join("df3_report_test");
        let args = ReportArgs {
            preset: "small_winter".into(),
            hours: 2,
            out_dir: dir.to_string_lossy().into_owned(),
            check: true,
        };
        let table = run(&args).expect("report run failed");
        let rendered = table.render();
        assert!(rendered.contains("report.jsonl"));
        for suffix in ["report.jsonl", "trace.json", "prom"] {
            let path = dir.join(format!("small_winter.{suffix}"));
            let body = std::fs::read_to_string(&path).expect("artefact written");
            assert!(!body.is_empty(), "{path:?} empty");
        }
    }
}
