//! Fleet serving sweep (beyond the paper): arrival process × scheduling
//! policy on a 4-instance PCNNA fleet serving AlexNet+LeNet mixed traffic
//! — run with `cargo run --release -p pcnna-bench --bin fleet`.
//!
//! Emits one row per (arrival, policy) cell: throughput, tail latency,
//! SLO attainment, weight reloads, and energy per request, plus a
//! load-scaling sweep and a seed-replicated tail-stability check.

use pcnna_core::PcnnaConfig;
use pcnna_fleet::metrics::mean_std;
use pcnna_fleet::prelude::*;

fn main() {
    let base = FleetScenario {
        classes: vec![
            NetworkClass::alexnet(0.004, 1.0),
            NetworkClass::lenet5(0.0005, 3.0),
        ],
        instances: vec![PcnnaConfig::default(); 4],
        queue_capacity: 50_000,
        horizon_s: 2.0,
        seed: 42,
        ..FleetScenario::default()
    };
    let arrivals: [(&str, ArrivalProcess); 3] = [
        ("poisson", ArrivalProcess::Poisson { rate_rps: 40_000.0 }),
        (
            "mmpp   ",
            ArrivalProcess::Mmpp {
                low_rps: 10_000.0,
                high_rps: 90_000.0,
                dwell_low_s: 0.2,
                dwell_high_s: 0.1,
            },
        ),
        (
            "diurnal",
            ArrivalProcess::Diurnal {
                base_rps: 10_000.0,
                peak_rps: 70_000.0,
                period_s: 1.0,
            },
        ),
    ];
    let policies = [
        ("fifo    ", Policy::Fifo),
        ("edf     ", Policy::EarliestDeadlineFirst),
        ("affinity", Policy::NetworkAffinity),
    ];

    println!("sweep 1 — arrival × policy (4 instances, AlexNet + 3×LeNet mix)");
    println!(
        "  {:<8} {:<9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>10}",
        "arrival", "policy", "thpt r/s", "p99 ms", "p999 ms", "SLO %", "reloads", "mJ/req"
    );
    for (alabel, arrival) in arrivals {
        for (plabel, policy) in policies {
            let r = FleetScenario {
                arrival,
                policy,
                ..base.clone()
            }
            .simulate()
            .expect("scenario is valid");
            println!(
                "  {:<8} {:<9} {:>9.0} {:>9.3} {:>9.3} {:>8.2} {:>8} {:>10.3}",
                alabel,
                plabel,
                r.throughput_rps,
                1e3 * r.latency.p99_s,
                1e3 * r.latency.p999_s,
                100.0 * r.slo_attainment,
                r.weight_reloads,
                1e3 * r.energy_per_request_j,
            );
        }
    }

    println!();
    println!("sweep 2 — load scaling under network affinity (Poisson)");
    println!(
        "  {:<10} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "rate r/s", "thpt r/s", "util %", "p50 ms", "p99 ms", "SLO %"
    );
    for rate in [5_000.0, 15_000.0, 30_000.0, 45_000.0, 60_000.0, 80_000.0] {
        let r = FleetScenario {
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            policy: Policy::NetworkAffinity,
            ..base.clone()
        }
        .simulate()
        .expect("scenario is valid");
        println!(
            "  {:<10.0} {:>9.0} {:>8.1} {:>9.3} {:>9.3} {:>8.2}",
            rate,
            r.throughput_rps,
            100.0 * r.utilization,
            1e3 * r.latency.p50_s,
            1e3 * r.latency.p99_s,
            100.0 * r.slo_attainment,
        );
    }

    println!();
    println!("sweep 3 — tail stability across 8 seed replicas (parallel)");
    let scenario = FleetScenario {
        arrival: ArrivalProcess::Mmpp {
            low_rps: 10_000.0,
            high_rps: 90_000.0,
            dwell_low_s: 0.2,
            dwell_high_s: 0.1,
        },
        policy: Policy::NetworkAffinity,
        ..base.clone()
    };
    let seeds: Vec<u64> = (0..8).collect();
    let reports = par::simulate_replicated(&scenario, &seeds).expect("replicas run");
    let (thpt_m, thpt_s) = mean_std(&reports, |r| r.throughput_rps);
    let (p99_m, p99_s) = mean_std(&reports, |r| 1e3 * r.latency.p99_s);
    let (slo_m, slo_s) = mean_std(&reports, |r| 100.0 * r.slo_attainment);
    println!("  throughput  {thpt_m:>9.0} ± {thpt_s:<6.0} req/s");
    println!("  p99 latency {p99_m:>9.3} ± {p99_s:<6.3} ms");
    println!("  SLO         {slo_m:>9.2} ± {slo_s:<6.2} %");
}
