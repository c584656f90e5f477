//! The benchmark's metric table (name, unit, clock, direction) and the
//! result line every run ends with.

use crate::stats::valid_metric_name;
use std::collections::BTreeMap;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (`std::time::Instant`).
    Wall,
    /// The simulated α-β network clock (1 GbE constants): deterministic.
    Sim,
    /// Not a clock: an exact count, ratio or quality value.
    Count,
}

/// One metric of the table.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, clock: Clock, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better: higher,
    }
}

use Clock::{Count, Sim, Wall};

/// Metrics of untraced runs (`--trace 0`), as named in `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    m("step_wall_ms_p50", "ms", Wall, false),
    m("step_wall_ms_p90", "ms", Wall, false),
    m("samples_per_s", "1/s", Wall, true),
    m("step_sim_ms", "sim_ms", Sim, false),
    m("final_loss", "loss", Count, false),
    m("setup_s", "s", Wall, false),
    m("peak_rss_mb", "MB", Count, false),
];

/// Metrics of traced runs (`--trace 1`): rank 0, per-step means unless
/// the unit is a count of a whole run.
pub const PER_LAYER: &[Metric] = &[
    m("data.batch_ms", "ms", Wall, false),
    m("nn.forward_ms", "ms", Wall, false),
    m("nn.backward_ms", "ms", Wall, false),
    m("nn.apply_ms", "ms", Wall, false),
    m("core.exchange_ms", "ms", Wall, false),
    m("sparse.select_ms", "ms", Wall, false),
    m("core.collective_ms", "ms", Wall, false),
    m("sparse.putback_ms", "ms", Wall, false),
    m("core.peer_wait_ms", "ms", Wall, false),
    m("core.allreduce_ms", "ms", Wall, false),
    m("comm.frame_codec_ms", "ms", Wall, false),
    m("comm.msgs_per_step", "count", Count, false),
    m("comm.elems_per_step", "count", Count, false),
    m("comm.pool_misses_per_step", "count", Count, false),
    m("comm.pool_hit_ratio", "ratio", Count, true),
    m("comm.retransmissions", "count", Count, false),
    m("comm.timeouts", "count", Count, false),
    m("core.update_nnz", "count", Count, true),
    m("comm.wire_alpha_ms", "ms", Wall, false),
    m("comm.wire_beta_ms_per_elem", "ms/elem", Wall, false),
    m("comm.wire_model_ratio", "ratio", Wall, false),
    m("trace_overhead_pct", "%", Wall, false),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (steps) attempted.
    pub attempted: u64,
    /// Steps that returned `Err`, panicked, or failed an output check.
    pub failed: u64,
    /// Whether every output and fidelity check passed.
    pub correct: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check: the run stays reportable but not correct.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }
}

/// Prints the metric table for `table` (human-readable) and then the
/// result object as the last line of standard output. Returns whether
/// the run was correct and complete.
pub fn emit(table: &[Metric], mut out: Outcome) -> bool {
    for metric in table {
        assert!(
            valid_metric_name(metric.name),
            "bad metric name {}",
            metric.name
        );
        match out.values.get(metric.name) {
            None => out.fail(format!("metric {} was not measured", metric.name)),
            Some(v) if !v.is_finite() => out.fail(format!("metric {} is {v}", metric.name)),
            Some(_) => {}
        }
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "fail_frac = {} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let mut body = Vec::new();
    for metric in table {
        let v = out.values.get(metric.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        println!(
            "  {:<28} {:>16} {:<8} [{}, {} is better]",
            metric.name,
            if v != 0.0 && v.abs() < 1e-3 {
                format!("{v:.6e}")
            } else {
                format!("{v:.6}")
            },
            metric.unit,
            match metric.clock {
                Wall => "wall",
                Sim => "sim",
                Count => "count",
            },
            if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            },
        );
        // `{v:?}` is the shortest round-trip form: every digit, and valid
        // JSON (`1e-5`, `3.0`).
        body.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    out.correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        // BENCHMARK.json lists one metric per line in exactly this form.
        let json = include_str!("../../BENCHMARK.json");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let rest = &json[start..];
            let block = &rest[..rest.find(']').expect("section ends")];
            let listed = block.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}: metric count");
            for metric in table {
                let dir = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{dir}\"",
                    metric.name, metric.unit
                );
                assert!(block.contains(&entry), "{section} lacks {entry}");
            }
        }
    }
}
