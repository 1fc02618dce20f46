//! Neural-network kernel benchmarks: the matmuls, attention and module
//! passes that dominate model training time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dace_nn::{Adam, Linear, LoraLinear, MaskedSelfAttention, Tensor2};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for n in [16usize, 64, 128] {
        let a = Tensor2::uniform(n, n, 1.0, 1);
        let b2 = Tensor2::uniform(n, n, 1.0, 2);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b2)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_tn", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul_tn(&b2)))
        });
    }
    let mut s = Tensor2::uniform(32, 32, 4.0, 3);
    group.bench_function("softmax_rows_32x32", |b| {
        b.iter(|| {
            let mut x = s.clone();
            x.softmax_rows();
            black_box(&x);
        })
    });
    s.scale(1.0);
    group.finish();
}

fn bench_modules(c: &mut Criterion) {
    let mut group = c.benchmark_group("modules");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    // A DACE-shaped plan: 12 nodes, 18 features.
    let x = Tensor2::uniform(12, 18, 1.0, 4);
    let bias = vec![0.0f32; 12 * 12];

    let mut attn = MaskedSelfAttention::new(18, 128, 128, 5);
    group.bench_function("attention_fwd_bwd_12x18", |b| {
        b.iter(|| {
            let y = attn.forward_bias(&x, &bias);
            black_box(attn.backward(&y));
        })
    });

    let mut linear = Linear::new(128, 128, 6);
    let h = Tensor2::uniform(12, 128, 1.0, 7);
    group.bench_function("linear_fwd_bwd_12x128", |b| {
        b.iter(|| {
            let y = linear.forward(&h);
            black_box(linear.backward(&y));
        })
    });

    let mut lora = LoraLinear::new(128, 128, 32, 8);
    let (mut y, mut xb, mut tmp) = (Tensor2::default(), Tensor2::default(), Tensor2::default());
    let (mut dx, mut dxb, mut gtmp) = (Tensor2::default(), Tensor2::default(), Tensor2::default());
    group.bench_function("lora_fwd_bwd_12x128_r32", |b| {
        b.iter(|| {
            lora.forward_ws(&h, &mut y, &mut xb, &mut tmp);
            lora.backward_ws(&y, &h, &xb, &mut dx, &mut dxb, &mut gtmp);
            black_box(&dx);
        })
    });

    let mut opt = Adam::new(1e-3);
    group.bench_function("adam_step_linear128", |b| {
        b.iter(|| {
            for p in linear.params_mut() {
                for g in p.grad.as_mut_slice() {
                    *g = 0.1;
                }
            }
            opt.step(&mut linear.params_mut());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_modules);
criterion_main!(benches);
