//! The benchmark's own checks: generated inputs are valid scenario
//! files, and the metric tables agree with `BENCHMARK.json`.

use pcnna_fleet::prelude::ScenarioSpec;
use pcnna_fleet::scenario::json::Json;
use perfbench::inputs::{self, Workload};
use perfbench::metrics::{self, MetricDef};

const SEEDS: [u64; 4] = [0, 1, 7, u64::MAX];

#[test]
fn generated_scenarios_round_trip_and_validate() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let spec = inputs::fleet_spec(workload, seed);
            spec.validate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            let text = spec.render();
            let back = ScenarioSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            assert_eq!(back, spec, "{} seed {seed} round trip", workload.name());
            assert_eq!(
                back.render(),
                text,
                "{} seed {seed} render",
                workload.name()
            );
            back.compile()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
        }
    }
}

#[test]
fn inputs_depend_on_the_seed_only() {
    for workload in Workload::ALL {
        assert_eq!(
            inputs::fleet_spec(workload, 3),
            inputs::fleet_spec(workload, 3)
        );
        assert_ne!(
            inputs::fleet_spec(workload, 3),
            inputs::fleet_spec(workload, 4)
        );
    }
    assert_eq!(inputs::dse_space(3), inputs::dse_space(3));
    assert_ne!(inputs::dse_space(3), inputs::dse_space(4));
    for seed in SEEDS {
        let space = inputs::dse_space(seed);
        assert!(space.validate().is_ok());
        assert_eq!(space.cardinality(), 70_000);
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn declared(json: &Json, key: &str) -> Vec<(String, String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
        .collect()
}

#[test]
fn printed_metrics_are_declared_in_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), table(metrics::END_TO_END));
    assert_eq!(declared(&json, "per_layer"), table(metrics::PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has a workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::DECLARED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn metric_lookup_rejects_undeclared_names() {
    assert_eq!(metrics::def("wall_s").unit, "s");
    assert!(std::panic::catch_unwind(|| metrics::def("not.a.metric")).is_err());
}
