//! The metric catalogue and the order statistics the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The machine running the simulator.
    Host,
    /// The simulated platform; repeats exactly for a given seed.
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

const fn m(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Host, Lower),
    m("run_cpu_s", "s", Host, Lower),
    m("run_wall_s", "s", Host, Lower),
    m("peak_rss_mb", "MB", Host, Lower),
    m("snapshot_mb", "MB", Host, Lower),
    m("branch_ms_p50", "ms", Host, Lower),
    m("branch_ms_p90", "ms", Host, Lower),
    m("sim_resistive_share", "ratio", Sim, Lower),
];

/// Reported by traced runs (`--trace 1`), per repetition unless the
/// unit says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    m("simcore.events", "count", Sim, Lower),
    m("simcore.peak_queue", "count", Sim, Lower),
    m("simcore.events_per_cpu_s", "1/s", Host, Higher),
    m("simcore.event_pop_s", "s", Host, Lower),
    m("simcore.dispatch_self_s", "s", Host, Lower),
    m("simcore.unprofiled_leg_s", "s", Host, Lower),
    m("df3_core.offload_s", "s", Host, Lower),
    m("df3_core.offload_calls", "count", Sim, Lower),
    m("df3_core.offload_us_mean", "us", Host, Lower),
    m("df3_core.offload_horizontal", "count", Sim, Lower),
    m("df3_core.offload_vertical", "count", Sim, Lower),
    m("df3_core.edge_expired", "count", Sim, Lower),
    m("df3_core.edge_rejected", "count", Sim, Lower),
    m("df3_core.preemptions", "count", Sim, Lower),
    m("df3_core.edge_miss_ratio", "ratio", Sim, Lower),
    m("df3_core.dcc_slowdown_mean", "ratio", Sim, Lower),
    m("df3_core.control_tick_s", "s", Host, Lower),
    m("df3_core.control_ticks", "count", Sim, Lower),
    m("thermal.stage_s", "s", Host, Lower),
    m("thermal.step_s", "s", Host, Lower),
    m("df3_core.tick_unattributed_s", "s", Host, Lower),
    m("df3_core.fault_runtime_s", "s", Host, Lower),
    m("df3_core.cluster_outages", "count", Sim, Lower),
    m("df3_core.boiler_backfill_kwh", "kWh", Sim, Lower),
    m("snapshot.encode_ms", "ms", Host, Lower),
    m("snapshot.restore_ms", "ms", Host, Lower),
    m("snapshot.resume_ms", "ms", Host, Lower),
    m("snapshot.bytes", "B", Host, Lower),
    m("workloads.gen_s", "s", Host, Lower),
    m("workloads.jobs", "count", Sim, Higher),
    m("df3_core.platform_new_s", "s", Host, Lower),
    m("mem.rss_mb_per_sim_h", "MB/h", Host, Lower),
    m("mem.bytes_per_job", "B", Host, Lower),
    m("report.render_ms", "ms", Host, Lower),
    m("report.trace_bytes", "B", Host, Lower),
    m("telemetry.overhead_ratio", "ratio", Host, Lower),
    m("telemetry.unattributed_s", "s", Host, Lower),
];

/// Look a metric up in either list.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Quantile `q` in [0, 1] with linear interpolation between closest
/// ranks (the "inclusive" method). `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
        }
    }

    /// `BENCHMARK.json` must list exactly this catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        simcore::telemetry::export::json::validate(json).expect("BENCHMARK.json is valid JSON");
        for (section, defs) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = json.find(section).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let entries: Vec<&str> = body.split('{').skip(1).collect();
            assert_eq!(entries.len(), defs.len(), "{section} length");
            for (entry, d) in entries.iter().zip(defs) {
                for needle in [
                    format!("\"name\": \"{}\"", d.name),
                    format!("\"unit\": \"{}\"", d.unit),
                    format!("\"better\": \"{}\"", d.better.name()),
                ] {
                    assert!(entry.contains(&needle), "{section}: {entry} lacks {needle}");
                }
            }
        }
    }
}
