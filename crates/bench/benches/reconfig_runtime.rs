//! Criterion bench behind the "Average Runtime" column of Table I: one
//! reconfiguration decision of each scheme on the paper's 100-module array.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teg_array::Configuration;
use teg_bench::{exponential_temperatures, paper_array};
use teg_reconfig::{Dnor, Ehtr, Inor, Reconfigurer, TelemetryWindow};
use teg_units::Celsius;

fn bench_decisions(c: &mut Criterion) {
    let n = 100;
    let array = paper_array(n);
    let history: Vec<Vec<f64>> = (0..10)
        .map(|step| exponential_temperatures(n, 68.0 + step as f64 * 0.2, 1.5, 25.0))
        .collect();
    let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0)).expect("inputs");
    let current = Configuration::uniform(n, 10).expect("config");

    let mut group = c.benchmark_group("reconfig/decision_100_modules");
    group.sample_size(50);

    group.bench_function("inor", |b| {
        let mut scheme = Inor::default();
        b.iter(|| {
            black_box(scheme.decide(black_box(&inputs), black_box(&current))).expect("decision")
        })
    });
    group.bench_function("ehtr", |b| {
        let mut scheme = Ehtr::default();
        b.iter(|| {
            black_box(scheme.decide(black_box(&inputs), black_box(&current))).expect("decision")
        })
    });
    group.bench_function("dnor_full_evaluation", |b| {
        let mut scheme = Dnor::default();
        b.iter(|| {
            // Reset so every measured iteration performs the full INOR +
            // prediction evaluation rather than the cheap skip path.
            scheme.reset();
            black_box(scheme.decide(black_box(&inputs), black_box(&current))).expect("decision")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decisions);
criterion_main!(benches);
