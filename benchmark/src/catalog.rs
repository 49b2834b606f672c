//! The metric catalogue: every metric the benchmark reports, by name,
//! with its unit, direction, layer and how two results are compared on
//! it. `BENCHMARK.json` at the repository root lists exactly these (a
//! unit test keeps the two in step).

use mpdata::StageKind;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// How `--compare` treats a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    /// End-to-end, reported by every workload from the untraced run;
    /// `bound` is the relative worsening that counts as a regression.
    EndToEnd {
        /// Relative worsening that counts as a regression.
        bound: f64,
    },
    /// End-to-end in meaning but defined on some workloads only, so it
    /// rides in the per-layer list (0 = not defined on this workload);
    /// compared against `bound` where both results carry it.
    Within {
        /// Relative worsening that counts as a regression.
        bound: f64,
    },
    /// A count, or computed from sizes, or simulated: repeats exactly,
    /// so two results of one commit must agree to the last bit.
    Exact,
    /// A host-time layer measurement: reported, never gated.
    Info,
}

/// One catalogued metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Stable name, `layer.metric` for per-layer metrics.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Comparison class.
    pub class: Class,
}

impl MetricDef {
    /// Whether the untraced run reports it (`end_to_end` of
    /// `BENCHMARK.json`); everything else is `per_layer`.
    pub fn is_end_to_end(&self) -> bool {
        matches!(self.class, Class::EndToEnd { .. })
    }
}

/// The 13 distinct kernel kinds, with the suffix their metrics carry.
pub const KIND_NAMES: [(StageKind, &str); 13] = [
    (StageKind::FluxI, "flux_i"),
    (StageKind::FluxJ, "flux_j"),
    (StageKind::FluxK, "flux_k"),
    (StageKind::Update, "update"),
    (StageKind::AntidiffI, "antidiff_i"),
    (StageKind::AntidiffJ, "antidiff_j"),
    (StageKind::AntidiffK, "antidiff_k"),
    (StageKind::MinMax, "minmax"),
    (StageKind::BetaUp, "beta_up"),
    (StageKind::BetaDn, "beta_dn"),
    (StageKind::LimFluxI, "limflux_i"),
    (StageKind::LimFluxJ, "limflux_j"),
    (StageKind::LimFluxK, "limflux_k"),
];

/// The simulated strategies of `sim_table3`, in sweep order.
pub const STRATEGIES: [&str; 3] = ["original", "fused", "islands"];

/// Every metric, end-to-end first, then per layer in workspace order.
pub fn catalog() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Class::{EndToEnd, Exact, Info, Within};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, class: Class| {
        out.push(MetricDef {
            name: name.to_string(),
            unit,
            better,
            class,
        });
    };

    // End to end, every workload. The timing bounds sit at the
    // contract's ceiling: on the 2-core reference sandbox (a shared
    // microVM) a register-resident loop slows by up to 50 % for tens of
    // seconds at a time, and ten runs of any workload spread by 4–5 % of
    // the median in quiet periods and 10–16 % in noisy ones. No bound
    // exceeds `setup_s`'s.
    add("setup_s", "s", Lower, EndToEnd { bound: 0.25 });
    add("total_s", "s", Lower, EndToEnd { bound: 0.25 });
    add("step_ms_p50", "ms", Lower, EndToEnd { bound: 0.25 });
    add("gflops", "Gflop/s", Higher, EndToEnd { bound: 0.25 });
    add("par_eff", "ratio", Higher, EndToEnd { bound: 0.25 });
    add("peak_rss_mb", "MB", Lower, EndToEnd { bound: 0.10 });

    // End to end on some workloads only; host times like the above.
    add("step_ms_p99", "ms", Lower, Within { bound: 0.25 });
    add("sim_host_s", "s", Lower, Within { bound: 0.25 });
    add("sim_ops_per_s", "ops/s", Higher, Within { bound: 0.25 });
    add("sim_err_pct", "%", Lower, Exact);
    add("verify_fail", "share", Lower, Exact);

    add("stencil.required_regions_us", "us", Lower, Info);
    add("stencil.plan_wavefront_us", "us", Lower, Info);
    add("stencil.tile_grid_us", "us", Lower, Info);
    add("stencil.block_count", "count", Lower, Exact);
    add("stencil.staged_bytes_per_cell", "B/cell", Lower, Exact);
    add("stencil.tiled_bytes_per_cell", "B/cell", Lower, Exact);

    for (_, kind) in KIND_NAMES {
        add(
            &format!("mpdata.stage_ns_per_cell.{kind}"),
            "ns/cell",
            Lower,
            Info,
        );
    }
    for (_, kind) in KIND_NAMES {
        add(
            &format!("mpdata.stage_roof_frac.{kind}"),
            "ratio",
            Higher,
            Info,
        );
    }
    add("mpdata.kernel_sum_ns_per_cell", "ns/cell", Lower, Info);
    add("mpdata.scalar_sum_ns_per_cell", "ns/cell", Lower, Info);
    add("mpdata.plan_build_ms", "ms", Lower, Info);
    add("mpdata.first_step_ms", "ms", Lower, Info);
    add("mpdata.kernel_ms_per_step", "ms", Lower, Info);
    add("mpdata.barrier_ms_per_step", "ms", Lower, Info);
    add("mpdata.swap_ms_per_step", "ms", Lower, Info);
    add("mpdata.kernel_share", "ratio", Higher, Info);
    add("mpdata.accounted_frac", "ratio", Higher, Info);
    add("mpdata.imbalance_ratio", "ratio", Lower, Info);
    add("mpdata.redundant_cell_frac", "ratio", Lower, Exact);
    add("mpdata.global_barriers_per_step", "count", Lower, Exact);
    add("mpdata.reference_step_ms", "ms", Lower, Info);
    add("mpdata.original_step_ms", "ms", Lower, Info);
    add("mpdata.plain_step_ms", "ms", Lower, Info);
    add("mpdata.knob_gain", "ratio", Higher, Info);

    add("scheduler.pool_spawn_us", "us", Lower, Info);
    add("scheduler.dispatch_us", "us", Lower, Info);
    add("scheduler.run_teams_us", "us", Lower, Info);
    add("scheduler.team_barrier_ns", "ns", Lower, Info);
    add("scheduler.global_barrier_ns", "ns", Lower, Info);
    add("scheduler.barrier_park_frac", "ratio", Lower, Info);
    add("scheduler.chunk_claim_ns", "ns", Lower, Info);
    add("scheduler.chunk_claim_contended_ns", "ns", Lower, Info);

    add("trace.disabled_record_ns", "ns", Lower, Info);
    add("trace.record_ns", "ns", Lower, Info);
    add("trace.drain_ns_per_event", "ns", Lower, Info);
    add("trace.aggregate_ns_per_event", "ns", Lower, Info);
    add("trace.overhead_ratio", "ratio", Lower, Info);
    add("trace.registry_absorb_ns", "ns", Lower, Info);
    add("trace.histogram_record_ns", "ns", Lower, Info);
    add("trace.prometheus_render_us", "us", Lower, Info);
    add("trace.events_per_step", "count", Lower, Exact);
    add("trace.dropped_events", "count", Lower, Exact);

    add("core.plan_original_ms", "ms", Lower, Info);
    add("core.plan_fused_ms", "ms", Lower, Info);
    add("core.plan_islands_ms", "ms", Lower, Info);
    add("core.ops_p14", "count", Lower, Exact);
    add("core.extra_pct_p14", "%", Lower, Exact);

    for s in STRATEGIES {
        add(&format!("numa-sim.simulate_ms.{s}"), "ms", Lower, Info);
    }
    add("numa-sim.machine_build_us", "us", Lower, Info);
    add("numa-sim.engine_ops_per_s", "ops/s", Higher, Info);
    for s in STRATEGIES {
        add(&format!("numa-sim.sim_s.{s}_p14"), "s", Lower, Exact);
    }
    add("numa-sim.remote_gb.fused_p14", "GB", Lower, Exact);
    add(
        "numa-sim.barrier_episodes.islands_p14",
        "count",
        Lower,
        Exact,
    );

    add("perf-model.predict_ms", "ms", Lower, Info);
    add("perf-model.model_err_pct", "%", Lower, Exact);
    add("perf-model.traffic_original_gb", "GB", Lower, Exact);
    add("perf-model.traffic_fused_gb", "GB", Lower, Exact);

    add("analysis.plan_build_ms", "ms", Lower, Info);
    add("analysis.check_ms", "ms", Lower, Info);
    add("analysis.diagnostics", "count", Lower, Exact);

    add("bench.host_cores", "count", Higher, Info);
    add("bench.timer_overhead_ns", "ns", Lower, Info);
    add("bench.host_triad_gbs_1t", "GB/s", Higher, Info);
    add("bench.host_triad_gbs_2t", "GB/s", Higher, Info);
    add("bench.host_dp_gflops_1t", "Gflop/s", Higher, Info);
    out
}

/// Measured values keyed by catalogued name. Setting a name the
/// catalogue does not know is a bug in the benchmark and panics.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The metrics of one run, in catalogue order: every end-to-end
    /// metric (`traced == false`) or every per-layer metric (`traced`),
    /// 0 for a per-layer metric the workload does not exercise.
    ///
    /// # Panics
    ///
    /// Panics on a recorded name the catalogue lacks, and on an
    /// end-to-end metric that was never recorded.
    pub fn for_run(&self, traced: bool) -> Vec<(MetricDef, f64)> {
        let defs = catalog();
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name:?} is not in the catalogue"
            );
        }
        defs.into_iter()
            .filter(|d| d.is_end_to_end() != traced)
            .map(|d| {
                let v = match self.get(&d.name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {:?} was not measured", d.name),
                };
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let defs = catalog();
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (i, d) in defs.iter().enumerate() {
            assert!(ok_name(&d.name), "bad name {:?}", d.name);
            assert!(ok_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
            assert!(
                !defs[..i].iter().any(|e| e.name == d.name),
                "duplicate {:?}",
                d.name
            );
        }
        let e2e = defs.iter().filter(|d| d.is_end_to_end()).count();
        assert!((1..=16).contains(&e2e));
        assert!((1..=128).contains(&(defs.len() - e2e)));
    }

    /// `/BENCHMARK.json` is what the driver reads; it must list exactly
    /// the catalogue and the workload table, and respect the contract's
    /// limits.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue_and_the_workloads() {
        use islands_trace::json::{parse, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let Json::Object(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|j| j.as_str().expect("string").to_string())
                .collect()
        };
        assert_eq!(strs("paths"), ["benchmark"]);
        let command = strs("command");
        assert!(command.len() <= 32 && command.contains(&"benchmark/Cargo.toml".to_string()));
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("number");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

        let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let table: Vec<(String, String)> = crate::workloads::all(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, table);

        let defs = catalog();
        for (key, e2e) in [("end_to_end", true), ("per_layer", false)] {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            let ours: Vec<&MetricDef> = defs.iter().filter(|d| d.is_end_to_end() == e2e).collect();
            assert_eq!(listed.len(), ours.len(), "{key}");
            for (j, d) in listed.iter().zip(ours) {
                assert_eq!(field(j, "name"), d.name);
                assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field(j, "better"), better, "{}", d.name);
                match d.class {
                    Class::EndToEnd { bound } => {
                        assert_eq!(
                            j.get("bound").and_then(Json::as_f64),
                            Some(bound),
                            "{}",
                            d.name
                        )
                    }
                    _ => assert!(j.get("bound").is_none(), "{}", d.name),
                }
            }
        }
    }

    #[test]
    fn setup_carries_the_largest_bound_and_none_exceeds_a_quarter() {
        let bound = |d: &MetricDef| match d.class {
            Class::EndToEnd { bound } => Some(bound),
            _ => None,
        };
        let defs = catalog();
        let setup = defs
            .iter()
            .find(|d| d.name == "setup_s")
            .and_then(bound)
            .expect("setup_s is end to end");
        for b in defs.iter().filter_map(bound) {
            assert!(b <= setup && b <= 0.25);
        }
    }

    #[test]
    fn unmeasured_layers_read_zero_and_unknown_names_panic() {
        let mut v = Values::default();
        for d in catalog().iter().filter(|d| d.is_end_to_end()) {
            v.set(&d.name, 1.5);
        }
        v.set("trace.record_ns", 12.0);
        let layer = v.for_run(true);
        assert!(layer
            .iter()
            .any(|(d, x)| d.name == "trace.record_ns" && *x == 12.0));
        assert!(layer
            .iter()
            .any(|(d, x)| d.name == "core.ops_p14" && *x == 0.0));
        assert_eq!(v.for_run(false).len(), 6);
        v.set("no.such.metric", 1.0);
        assert!(std::panic::catch_unwind(|| v.for_run(true)).is_err());
    }
}
