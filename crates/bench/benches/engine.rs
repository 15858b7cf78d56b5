//! Microbenchmarks of the simulation substrate: event-queue throughput and
//! network message handling. These quantify the simulator itself, not the
//! paper's results (see the `fig3`/`fig4` benches for those).

use bcbpt_net::{NetConfig, Network, RandomPolicy};
use bcbpt_sim::{Control, Engine, SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn engine_schedule_pop(c: &mut Criterion) {
    c.bench_function("engine/schedule_and_drain_10k", |b| {
        b.iter_batched(
            Engine::<u64>::new,
            |mut engine| {
                for i in 0..10_000u64 {
                    engine.schedule_at(SimTime::from_micros(i * 37 % 100_000), i);
                }
                let mut sum = 0u64;
                engine.run(|_, v| {
                    sum = sum.wrapping_add(v);
                    Control::Continue
                });
                black_box(sum)
            },
            BatchSize::SmallInput,
        );
    });
}

fn engine_timer_cascade(c: &mut Criterion) {
    c.bench_function("engine/timer_cascade_10k", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            engine.schedule_in(SimDuration::from_micros(1), 0u32);
            let mut n = 0u32;
            engine.run(|engine, _| {
                n += 1;
                if n < 10_000 {
                    engine.schedule_in(SimDuration::from_micros(1), n);
                }
                Control::Continue
            });
            black_box(n)
        });
    });
}

/// 100 timers sharing one period, re-armed as they fire — the shape of the
/// network's discovery ticks — so the queue's FIFO lane carries the load.
fn engine_periodic_lane(c: &mut Criterion) {
    c.bench_function("engine/periodic_lane_10k", |b| {
        b.iter(|| {
            let period = SimDuration::from_micros(100);
            let mut engine = Engine::new();
            for timer in 0..100u32 {
                engine.schedule_in_monotone(SimDuration::from_micros(u64::from(timer)), timer);
            }
            let mut n = 0u32;
            engine.run(|engine, timer| {
                n += 1;
                if n <= 9_900 {
                    engine.schedule_in_monotone(period, timer);
                }
                Control::Continue
            });
            black_box(n)
        });
    });
}

fn network_flood(c: &mut Criterion) {
    c.bench_function("network/flood_200_nodes", |b| {
        b.iter_batched(
            || {
                let mut config = NetConfig::test_scale();
                config.num_nodes = 200;
                Network::build(config, Box::new(RandomPolicy::new()), 42).unwrap()
            },
            |mut net| {
                let origin = net.pick_online_node().unwrap();
                net.inject_watched_tx(origin, None).unwrap();
                net.run_for_ms(30_000.0);
                black_box(net.watch().unwrap().reached_count())
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = engine_schedule_pop, engine_timer_cascade, engine_periodic_lane, network_flood
}
criterion_main!(benches);
