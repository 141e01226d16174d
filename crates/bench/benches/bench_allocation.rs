//! Criterion benches for Algorithm 2 — the engine behind Figs. 10/11/14
//! and Table 3 — including its scaling in network size and channel count,
//! and the ε-stopping-rule ablation.

use acorn_core::allocation::{allocate_with_restarts, AllocationConfig};
use acorn_core::model::{ClientSnr, NetworkModel};
use acorn_topology::{ChannelPlan, InterferenceGraph};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn model(n_aps: usize, clients_per_ap: usize) -> NetworkModel {
    let cells = (0..n_aps)
        .map(|a| {
            (0..clients_per_ap)
                .map(|i| ClientSnr {
                    client: a * clients_per_ap + i,
                    snr20_db: 4.0 + ((a * 7 + i * 13) % 28) as f64,
                })
                .collect()
        })
        .collect();
    NetworkModel::new(InterferenceGraph::complete(n_aps), cells)
}

fn bench_scaling_in_aps(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation/scaling_n_aps");
    for n in [2usize, 4, 8, 12] {
        let m = model(n, 3);
        let plan = ChannelPlan::full_5ghz();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                allocate_with_restarts(black_box(&m), &plan, &AllocationConfig::default(), 0, 1)
            })
        });
    }
    group.finish();
}

fn bench_scaling_in_channels(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation/scaling_channels");
    let m = model(4, 3);
    for ch in [2u8, 4, 6, 12] {
        let plan = ChannelPlan::restricted(ch);
        group.bench_with_input(BenchmarkId::from_parameter(ch), &ch, |b, _| {
            b.iter(|| {
                allocate_with_restarts(black_box(&m), &plan, &AllocationConfig::default(), 0, 1)
            })
        });
    }
    group.finish();
}

fn bench_epsilon_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation/ablation_epsilon");
    let m = model(6, 3);
    let plan = ChannelPlan::full_5ghz();
    for eps in [1.0f64, 1.05, 1.10] {
        let cfg = AllocationConfig {
            epsilon: eps,
            max_rounds: 64,
        };
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, _| {
            b.iter(|| allocate_with_restarts(black_box(&m), &plan, &cfg, 0, 1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling_in_aps,
    bench_scaling_in_channels,
    bench_epsilon_ablation
);
criterion_main!(benches);
