//! Criterion bench behind the scalability claim: decision runtime of the
//! O(N) INOR versus the polynomial EHTR as the array grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use teg_array::Configuration;
use teg_bench::{exponential_temperatures, paper_array};
use teg_reconfig::{Ehtr, Inor, Reconfigurer, TelemetryWindow};
use teg_units::Celsius;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconfig/scaling");
    group.sample_size(10);

    for &n in &[50usize, 100, 200, 400] {
        let array = paper_array(n);
        let history = vec![exponential_temperatures(n, 70.0, 1.5, 25.0)];
        let inputs = TelemetryWindow::new(&array, &history, Celsius::new(25.0)).expect("inputs");
        let current = Configuration::uniform(n, (n as f64).sqrt().ceil() as usize).expect("config");

        group.bench_with_input(BenchmarkId::new("inor", n), &n, |b, _| {
            let mut scheme = Inor::default();
            b.iter(|| black_box(scheme.decide(&inputs, &current)).expect("decision"))
        });
        group.bench_with_input(BenchmarkId::new("ehtr", n), &n, |b, _| {
            let mut scheme = Ehtr::default();
            b.iter(|| black_box(scheme.decide(&inputs, &current)).expect("decision"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
