//! `df3-experiments snapshot|resume|branch` — checkpoint a warmed-up
//! run, continue it in a fresh process, or fan a sweep of fault
//! branches out of one shared warm-up.
//!
//! ```text
//! df3-experiments snapshot --preset district_winter --at 72h -o warm.df3snap
//! df3-experiments resume   --preset district_winter --snapshot warm.df3snap --check
//! df3-experiments branch   --preset district_winter --snapshot warm.df3snap --sweep 32
//! ```
//!
//! `snapshot` runs the preset's canonical job stream to `--at` and
//! writes the paused state. `resume` restores it and runs to the
//! horizon; `--check` additionally replays the whole run cold and fails
//! unless all three deterministic exports agree byte for byte — the CI
//! round-trip leg runs in this mode. `branch --sweep N` restores the
//! same warm-up N times, extending the fault plan with one
//! deterministically derived cluster outage per branch (RNG streams are
//! re-derived per branch index, so a sweep is reproducible from the
//! preset seed alone).

use crate::run_report::preset_config;
use df3_core::report::{ExportOptions, RunReport};
use df3_core::{FaultPlan, PausedRun, Platform, PlatformConfig, PlatformOutcome, Window};
use rand::Rng;
use simcore::report::Table;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::time::Instant;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// Parse `72h` / `30m` / `3600s` / `2d` into a [`SimDuration`].
pub fn parse_sim_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, unit) = s.split_at(s.len().saturating_sub(1));
    let n: i64 = digits
        .parse()
        .map_err(|_| format!("not a duration: {s} (want e.g. 72h, 30m, 3600s, 2d)"))?;
    if n <= 0 {
        return Err(format!("duration must be positive: {s}"));
    }
    match unit {
        "s" => Ok(SimDuration::from_secs(n)),
        "m" => Ok(SimDuration::from_secs(n * 60)),
        "h" => Ok(SimDuration::from_hours(n)),
        "d" => Ok(SimDuration::from_hours(n * 24)),
        _ => Err(format!("unknown duration unit in {s} (want s, m, h, or d)")),
    }
}

/// The preset's config with telemetry on (so the flight recorder rides
/// through the snapshot and the exports have content to compare).
fn warm_config(preset: &str, hours: i64) -> Result<PlatformConfig, String> {
    if hours <= 0 {
        return Err("--hours must be positive".into());
    }
    let mut cfg = preset_config(preset)?;
    cfg.horizon = SimDuration::from_hours(hours);
    cfg.telemetry.enabled = true;
    Ok(cfg)
}

/// The canonical job stream every snapshot subcommand runs: the same
/// map-serving edge workload `df3-experiments report` uses, derived
/// from the preset seed. Resume and branch never need it (arrivals live
/// in the snapshot) except to replay cold for `--check`.
fn canonical_jobs(cfg: &PlatformConfig) -> JobStream {
    location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(cfg.seed),
        0,
    )
}

fn pause(cfg: PlatformConfig, jobs: &JobStream, at: SimDuration) -> Result<PausedRun, String> {
    match Platform::new(cfg).run_to(jobs, SimTime::ZERO + at) {
        df3_core::RunTo::Paused(p) => Ok(p),
        df3_core::RunTo::Finished(_) => {
            Err("--at must fall strictly inside the horizon".to_string())
        }
    }
}

/// Branch `index`'s fault plan: the base plan plus one cluster outage
/// whose cluster, start, and duration are drawn from the preset seed's
/// per-branch replication stream. Pure function of (config, warm-up
/// point, index) — the cold-start verification in `bench_pr5` derives
/// the identical plan without seeing the snapshot.
pub fn branch_plan(cfg: &PlatformConfig, warm: SimDuration, index: u64) -> FaultPlan {
    let mut rng = RngStreams::new(cfg.seed)
        .replication(index)
        .stream("branch.outage");
    let cluster = rng.gen_range(0..cfg.n_clusters);
    // Earliest legal start: one control tick past the branch point
    // (earlier windows would rewrite warmed-up history and are
    // rejected by `Platform::restore_branch`), plus a tick of slack.
    let earliest = (warm + cfg.control_period * 2).as_secs_f64() as i64;
    let latest = (cfg.horizon.as_secs_f64() as i64 - 3_600).max(earliest + 1);
    let start = rng.gen_range(earliest..latest + 1);
    let dur: i64 = rng.gen_range(1_800..7_201);
    cfg.faults.clone().with_cluster_outage(
        cluster,
        Window::new(
            SimDuration::from_secs(start),
            SimDuration::from_secs(start + dur),
        ),
    )
}

/// Byte-compare all three deterministic exports of two outcomes under
/// the same config; returns the first diverging document's name.
pub fn exports_diverge(
    cfg: &PlatformConfig,
    a: &PlatformOutcome,
    b: &PlatformOutcome,
) -> Option<&'static str> {
    let (ra, rb) = (
        RunReport::new("check", cfg, a),
        RunReport::new("check", cfg, b),
    );
    let opts = ExportOptions::deterministic();
    if ra.jsonl(&opts) != rb.jsonl(&opts) {
        return Some("JSONL report");
    }
    if ra.chrome_trace_json() != rb.chrome_trace_json() {
        return Some("Chrome trace");
    }
    if ra.prometheus() != rb.prometheus() {
        return Some("Prometheus snapshot");
    }
    None
}

/// Parsed `snapshot` subcommand arguments.
#[derive(Debug, Clone)]
pub struct SnapshotArgs {
    pub preset: String,
    pub hours: i64,
    pub at: SimDuration,
    pub out: String,
}

pub fn parse_snapshot_args(rest: &[String]) -> Result<SnapshotArgs, String> {
    let mut a = SnapshotArgs {
        preset: "district_winter".into(),
        hours: 96,
        at: SimDuration::from_hours(72),
        out: "warm.df3snap".into(),
    };
    let mut it = rest.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--preset" => a.preset = it.next().ok_or("--preset needs a value")?.clone(),
            "--hours" => {
                let v = it.next().ok_or("--hours needs a value")?;
                a.hours = v
                    .parse()
                    .map_err(|_| format!("--hours: not an integer: {v}"))?;
            }
            "--at" => a.at = parse_sim_duration(it.next().ok_or("--at needs a value")?)?,
            "-o" | "--out" => a.out = it.next().ok_or("-o needs a value")?.clone(),
            other => return Err(format!("unknown snapshot flag: {other}")),
        }
    }
    Ok(a)
}

/// Warm a preset up to `--at` and write the checkpoint file.
pub fn run_snapshot(a: &SnapshotArgs) -> Result<Table, String> {
    let cfg = warm_config(&a.preset, a.hours)?;
    if a.at >= cfg.horizon {
        return Err(format!(
            "--at ({:.0} h) must fall inside the {:.0}-hour horizon",
            a.at.as_hours_f64(),
            cfg.horizon.as_hours_f64()
        ));
    }
    let jobs = canonical_jobs(&cfg);
    let t0 = Instant::now();
    let paused = pause(cfg, &jobs, a.at)?;
    let warm_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let bytes = paused.snapshot_bytes();
    let encode_ms = t1.elapsed().as_secs_f64() * 1e3;
    std::fs::write(&a.out, &bytes).map_err(|e| format!("write {}: {e}", a.out))?;
    let mut table =
        Table::new(&format!("snapshot — {}", a.preset)).headers(&["field", "value", "note"]);
    table.row(&[
        a.out.clone(),
        format!("{} B", bytes.len()),
        "versioned + per-section checksums".into(),
    ]);
    table.row(&[
        "paused at".into(),
        format!("{:.2} h", paused.now().since(SimTime::ZERO).as_hours_f64()),
        format!("{} events dispatched", paused.events()),
    ]);
    table.row(&[
        "warm-up".into(),
        format!("{warm_s:.1} s"),
        format!("encode {encode_ms:.1} ms"),
    ]);
    Ok(table)
}

/// Parsed `resume` subcommand arguments.
#[derive(Debug, Clone)]
pub struct ResumeArgs {
    pub preset: String,
    pub hours: i64,
    pub snapshot: String,
    pub check: bool,
}

pub fn parse_resume_args(rest: &[String]) -> Result<ResumeArgs, String> {
    let mut a = ResumeArgs {
        preset: "district_winter".into(),
        hours: 96,
        snapshot: "warm.df3snap".into(),
        check: false,
    };
    let mut it = rest.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--preset" => a.preset = it.next().ok_or("--preset needs a value")?.clone(),
            "--hours" => {
                let v = it.next().ok_or("--hours needs a value")?;
                a.hours = v
                    .parse()
                    .map_err(|_| format!("--hours: not an integer: {v}"))?;
            }
            "--snapshot" => a.snapshot = it.next().ok_or("--snapshot needs a value")?.clone(),
            "--check" => a.check = true,
            other => return Err(format!("unknown resume flag: {other}")),
        }
    }
    Ok(a)
}

/// Restore a checkpoint and run it to the horizon. With `--check`,
/// replay the run cold and demand byte-identical deterministic exports.
pub fn run_resume(a: &ResumeArgs) -> Result<Table, String> {
    let cfg = warm_config(&a.preset, a.hours)?;
    let bytes = std::fs::read(&a.snapshot).map_err(|e| format!("read {}: {e}", a.snapshot))?;
    let t0 = Instant::now();
    let paused = Platform::restore(cfg.clone(), &bytes)
        .map_err(|e| format!("restore {}: {e}", a.snapshot))?;
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let from_h = paused.now().since(SimTime::ZERO).as_hours_f64();
    let t1 = Instant::now();
    let out = paused.resume();
    let resume_s = t1.elapsed().as_secs_f64();
    let check_note = if a.check {
        let cold = Platform::new(cfg.clone()).run(&canonical_jobs(&cfg));
        if let Some(doc) = exports_diverge(&cfg, &out, &cold) {
            return Err(format!("{doc} diverged between restored and cold runs"));
        }
        "restored == cold on all three exports".to_string()
    } else {
        "(pass --check to verify against a cold run)".to_string()
    };
    let mut table =
        Table::new(&format!("resume — {}", a.preset)).headers(&["field", "value", "note"]);
    table.row(&[
        "restored".into(),
        format!("{from_h:.2} h"),
        format!("decode {decode_ms:.1} ms"),
    ]);
    table.row(&[
        "finished".into(),
        format!("{:.2} h", out.end.since(SimTime::ZERO).as_hours_f64()),
        format!("{} events, {resume_s:.1} s wall", out.events),
    ]);
    table.row(&["check".into(), a.check.to_string(), check_note]);
    Ok(table)
}

/// Parsed `branch` subcommand arguments.
#[derive(Debug, Clone)]
pub struct BranchArgs {
    pub preset: String,
    pub hours: i64,
    pub snapshot: String,
    pub sweep: usize,
}

pub fn parse_branch_args(rest: &[String]) -> Result<BranchArgs, String> {
    let mut a = BranchArgs {
        preset: "district_winter".into(),
        hours: 96,
        snapshot: "warm.df3snap".into(),
        sweep: 8,
    };
    let mut it = rest.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--preset" => a.preset = it.next().ok_or("--preset needs a value")?.clone(),
            "--hours" => {
                let v = it.next().ok_or("--hours needs a value")?;
                a.hours = v
                    .parse()
                    .map_err(|_| format!("--hours: not an integer: {v}"))?;
            }
            "--snapshot" => a.snapshot = it.next().ok_or("--snapshot needs a value")?.clone(),
            "--sweep" => {
                let v = it.next().ok_or("--sweep needs a value")?;
                a.sweep = v
                    .parse()
                    .map_err(|_| format!("--sweep: not an integer: {v}"))?;
            }
            other => return Err(format!("unknown branch flag: {other}")),
        }
    }
    if a.sweep == 0 {
        return Err("--sweep must be at least 1".into());
    }
    Ok(a)
}

/// Fan `--sweep` fault branches out of one shared warm-up: each branch
/// restores the same snapshot and appends one derived cluster outage.
pub fn run_branch(a: &BranchArgs) -> Result<Table, String> {
    let cfg = warm_config(&a.preset, a.hours)?;
    let base = cfg.faults.clone();
    let bytes = std::fs::read(&a.snapshot).map_err(|e| format!("read {}: {e}", a.snapshot))?;
    // The branch point is stamped in the snapshot; probe it once.
    let warm = Platform::restore(cfg.clone(), &bytes)
        .map_err(|e| format!("restore {}: {e}", a.snapshot))?
        .now()
        .since(SimTime::ZERO);
    let t0 = Instant::now();
    let mut table = Table::new(&format!("branch sweep — {} × {}", a.preset, a.sweep)).headers(&[
        "branch",
        "outage",
        "edge p99 ms / outages seen",
    ]);
    for i in 0..a.sweep {
        let mut bcfg = cfg.clone();
        bcfg.faults = branch_plan(&cfg, warm, i as u64);
        let added = *bcfg
            .faults
            .cluster_outages
            .last()
            .expect("branch plan appends an outage");
        let out = Platform::restore_branch(&base, bcfg, &bytes)
            .map_err(|e| format!("branch {i}: {e}"))?
            .resume();
        table.row(&[
            format!("#{i}"),
            format!(
                "cluster {} @ {:.1}–{:.1} h",
                added.cluster,
                added.window.start.as_hours_f64(),
                added.window.end.as_hours_f64()
            ),
            format!(
                "{:.1} / {}",
                out.stats.edge_response_ms.p99(),
                out.stats.cluster_outages.get()
            ),
        ]);
    }
    table.row(&[
        "total".into(),
        format!("{:.1} s wall", t0.elapsed().as_secs_f64()),
        format!(
            "{} branches off one {:.0}-hour warm-up",
            a.sweep,
            warm.as_hours_f64()
        ),
    ]);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_parser_accepts_all_units_and_rejects_junk() {
        assert_eq!(
            parse_sim_duration("72h").unwrap(),
            SimDuration::from_hours(72)
        );
        assert_eq!(
            parse_sim_duration("90s").unwrap(),
            SimDuration::from_secs(90)
        );
        assert_eq!(
            parse_sim_duration("30m").unwrap(),
            SimDuration::from_secs(1_800)
        );
        assert_eq!(
            parse_sim_duration("2d").unwrap(),
            SimDuration::from_hours(48)
        );
        for bad in ["", "h", "12", "-3h", "0h", "5w"] {
            assert!(parse_sim_duration(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn arg_parsers_cover_flags_and_reject_unknowns() {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let s = parse_snapshot_args(&v(&[
            "--preset",
            "small_winter",
            "--hours",
            "6",
            "--at",
            "2h",
            "-o",
            "/tmp/x.df3snap",
        ]))
        .unwrap();
        assert_eq!(s.preset, "small_winter");
        assert_eq!(s.at, SimDuration::from_hours(2));
        assert_eq!(s.out, "/tmp/x.df3snap");
        let b = parse_branch_args(&v(&["--sweep", "4", "--snapshot", "w.df3snap"])).unwrap();
        assert_eq!(b.sweep, 4);
        assert!(parse_resume_args(&v(&["--bogus"])).is_err());
        assert!(parse_branch_args(&v(&["--sweep", "0"])).is_err());
    }

    #[test]
    fn branch_plans_are_deterministic_extensions() {
        let mut cfg = preset_config("small_winter").unwrap();
        cfg.horizon = SimDuration::from_hours(12);
        let warm = SimDuration::from_hours(4);
        for i in 0..8 {
            let p = branch_plan(&cfg, warm, i);
            assert_eq!(p, branch_plan(&cfg, warm, i), "branch {i} not reproducible");
            let o = p.cluster_outages.last().unwrap();
            assert!(o.window.start >= warm + cfg.control_period);
            assert!(o.window.end <= cfg.horizon + SimDuration::from_hours(2));
            assert!(o.cluster < cfg.n_clusters);
        }
        assert_ne!(
            branch_plan(&cfg, warm, 0),
            branch_plan(&cfg, warm, 1),
            "distinct branches must draw distinct outages"
        );
    }

    #[test]
    fn snapshot_resume_branch_round_trip_through_files() {
        let dir = std::env::temp_dir().join("df3_snapshot_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("warm.df3snap").to_string_lossy().into_owned();
        let sa = SnapshotArgs {
            preset: "small_winter".into(),
            hours: 4,
            at: SimDuration::from_hours(2),
            out: snap.clone(),
        };
        run_snapshot(&sa).expect("snapshot failed");
        let ra = ResumeArgs {
            preset: "small_winter".into(),
            hours: 4,
            snapshot: snap.clone(),
            check: true,
        };
        run_resume(&ra).expect("resume --check failed");
        let ba = BranchArgs {
            preset: "small_winter".into(),
            hours: 4,
            snapshot: snap,
            sweep: 2,
        };
        let rendered = run_branch(&ba).expect("branch sweep failed").render();
        assert!(rendered.contains("cluster "));
    }
}
