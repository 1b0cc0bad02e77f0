//! Micro-benchmarks of the hot kernels underlying every experiment: list
//! scheduling, design-point evaluation, SEU injection sampling, the DES
//! engine and the scaling enumeration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sea_arch::{Architecture, LevelSet, ScalingVector};
use sea_opt::ScalingIter;
use sea_sched::metrics::EvalContext;
use sea_sched::Mapping;
use sea_sim::{simulate_execution, SimConfig};
use sea_taskgraph::generator::RandomGraphConfig;
use sea_taskgraph::mpeg2;

fn bench_kernels(c: &mut Criterion) {
    let app = mpeg2::application();
    let arch = Architecture::arm7_calibrated(4, LevelSet::arm7_three_level());
    let ctx = EvalContext::new(&app, &arch);
    let mapping = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4).unwrap();
    let scaling = ScalingVector::try_new(vec![2, 2, 3, 2], &arch).unwrap();

    c.bench_function("kernels/list_schedule_mpeg2", |b| {
        b.iter(|| ctx.schedule(&mapping, &scaling).expect("schedulable"));
    });
    c.bench_function("kernels/evaluate_mpeg2", |b| {
        b.iter(|| ctx.evaluate(&mapping, &scaling).expect("evaluable"));
    });
    c.bench_function("kernels/des_engine_mpeg2_437_frames", |b| {
        b.iter(|| simulate_execution(&app, &arch, &mapping, &scaling).expect("runs"));
    });
    c.bench_function("kernels/fault_injection_mpeg2", |b| {
        let trace = simulate_execution(&app, &arch, &mapping, &scaling).expect("runs");
        let cfg = SimConfig::seeded(7);
        b.iter(|| {
            sea_sim::fault::inject(&app, &arch, &mapping, &scaling, &trace, &cfg).expect("injects")
        });
    });

    // A 100-task random workload: evaluation at scale.
    let big = RandomGraphConfig::paper(100).generate(1).unwrap();
    let arch6 = Architecture::arm7_calibrated(6, LevelSet::arm7_three_level());
    let ctx6 = EvalContext::new(&big, &arch6);
    let mapping6 =
        Mapping::try_new((0..100).map(|i| sea_arch::CoreId::new(i % 6)).collect(), 6).unwrap();
    let scaling6 = ScalingVector::uniform(2, &arch6).unwrap();
    c.bench_function("kernels/evaluate_random100_6cores", |b| {
        b.iter(|| ctx6.evaluate(&mapping6, &scaling6).expect("evaluable"));
    });

    c.bench_function("kernels/scaling_iter_6c_4l", |b| {
        b.iter(|| ScalingIter::new(6, 4).count());
    });

    // The prune test itself: one bound per (scaling, chunk-member); must
    // stay trivial next to even a single schedule call.
    c.bench_function("kernels/tm_lower_bound_random100_6cores", |b| {
        b.iter(|| sea_sched::tm_lower_bound(&big, &arch6, &scaling6));
    });

    c.bench_function("kernels/poisson_large_mean", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| {
                let mut acc = 0u64;
                for _ in 0..100 {
                    acc += sea_sim::rng::poisson(&mut rng, 2.5e6);
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = sea_bench::kernel_criterion();
    targets = bench_kernels
}
criterion_main!(benches);
