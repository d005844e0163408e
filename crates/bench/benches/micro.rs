//! Microbenchmarks for the hot paths of each substrate crate.
//!
//! Each bench runs in a group whose sample size is sized to its cost,
//! so one timed pass takes tens of milliseconds: the shim times a
//! single pass after one warm-up call, and a pass of a few hundred
//! nanoseconds would be dominated by first-call effects.
//!
//! `--smoke` runs a crowd-shaped buffer-pool touch list through
//! `BufferPool::read_all` and through the per-touch `access` loop, and
//! exits non-zero unless both leave equal counters and recency order
//! and the batch entry is no slower (ci.sh gate). Its numbers are
//! recorded in `results/BENCH_micro.json`.

use criterion::{criterion_group, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use cloudchar_rubis::db::{Database, MySqlConfig, MySqlServer, Query, QueryResult};
use cloudchar_rubis::interactions::EntityRanges;
use cloudchar_rubis::schema::{DbScale, ItemId};
use cloudchar_rubis::storage::{Access, BufferPool, PageRef, TableId, PAGE_BYTES};
use cloudchar_rubis::{NextAction, QueryList, TransitionTable};
use cloudchar_simcore::{Dist, Engine, Sample, SimDuration, SimRng, SimTime};
use cloudchar_xen::{CreditScheduler, Demand, DomId, SchedParams};

fn count_event(_: &mut Engine<u64>, count: &mut u64, _: u64) {
    *count += 1;
}

/// Raw event-queue throughput: schedule + drain.
fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(50);
    group.bench_function("10k_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            for i in 0..10_000u64 {
                engine.schedule_at(SimTime::from_nanos(i * 7919 % 1_000_000), count_event, i);
            }
            engine.run(&mut world);
            black_box(world)
        })
    });
    group.finish();
}

/// Credit scheduler allocation with contention.
fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("credit_sched");
    group.sample_size(500_000);
    group.bench_function("allocate", |b| {
        let mut sched = CreditScheduler::new(8);
        for i in 0..4 {
            sched.add_domain(
                DomId(i),
                SchedParams {
                    weight: 256,
                    cap_percent: None,
                    vcpus: 2,
                },
            );
        }
        let demands: Vec<Demand> = (0..4)
            .map(|i| Demand {
                dom: DomId(i),
                core_secs: 0.02,
            })
            .collect();
        let mut out = Vec::new();
        b.iter(|| {
            sched.allocate_into(0.01, &demands, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

/// Buffer-pool access with a hot/cold mix.
/// Timed over 200k accesses after every page has been touched once, so
/// the steady state is measured rather than the first misses.
fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool_access");
    group.sample_size(200_000);
    group.bench_function("hot_cold_mix", |b| {
        let mut bp = BufferPool::new(1024 * PAGE_BYTES);
        for page in 0..5000 {
            bp.access(
                PageRef {
                    table: TableId::Items,
                    page,
                },
                false,
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let page = if i % 4 == 0 { i % 5000 } else { i % 64 };
            black_box(bp.access(
                PageRef {
                    table: TableId::Items,
                    page,
                },
                i % 7 == 0,
            ))
        })
    });
    group.finish();
}

/// The read-page lists of the uncached queries that a browsing-mix walk
/// issues against the fast-scale database (seed 42): crowd-shaped
/// buffer-pool traffic. Search pages are never cached, and a cacheable
/// SELECT reaches the pool only the first time (the browsing mix does
/// not write, so nothing is invalidated).
fn crowd_touch_lists(queries: usize) -> Vec<Vec<PageRef>> {
    let mut rng = SimRng::new(42);
    let mut db = Database::generate(DbScale::small(), &mut rng);
    let cards = db.cardinalities();
    let ranges = EntityRanges {
        users: cards[0] as u32,
        items: cards[1] as u32,
        categories: db.scale().categories,
        regions: db.scale().regions,
    };
    let table = TransitionTable::browsing();
    let mut page = TransitionTable::entry();
    let mut cached = HashSet::new();
    let mut result = QueryResult::default();
    let mut lists = Vec::with_capacity(queries);
    while lists.len() < queries {
        page = match table.next(page, &mut rng) {
            NextAction::Goto(next) => next,
            NextAction::Back | NextAction::End => TransitionTable::entry(),
        };
        for &q in QueryList::draw(page, ranges, &mut rng).as_slice() {
            if q.cache_key().is_some_and(|key| !cached.insert(key)) {
                continue;
            }
            db.execute(q, 0, &mut result);
            lists.push(result.pages.clone());
        }
    }
    lists
}

/// A pool of the MySQL tier's default size, warmed by one per-touch
/// pass over `lists`.
fn warm_pool(lists: &[Vec<PageRef>]) -> BufferPool {
    let mut pool = BufferPool::new(MySqlConfig::default().buffer_pool_bytes);
    for list in lists {
        for &page in list {
            pool.access(page, false);
        }
    }
    pool
}

/// One query's read touches through the batch entry, cycling over a
/// crowd-shaped touch list on a warm pool.
fn bench_query_touch(c: &mut Criterion) {
    let lists = crowd_touch_lists(2_000);
    let mut pool = warm_pool(&lists);
    let mut group = c.benchmark_group("buffer_pool_access");
    group.sample_size(20_000);
    group.bench_function("query_touch", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % lists.len();
            let mut misses = 0u32;
            pool.read_all(&lists[i], |access| {
                misses += u32::from(access != Access::Hit)
            });
            black_box(misses)
        })
    });
    group.finish();
}

/// ci.sh gate: the batch entry leaves the counters and recency order
/// of the per-touch loop, and is no slower on a crowd-shaped touch
/// list. Best of 5 per side, the sides alternating rep by rep.
fn smoke() {
    let lists = crowd_touch_lists(2_000);
    let touches: usize = lists.iter().map(Vec::len).sum();
    let warm = warm_pool(&lists);
    let pass = |batch: bool| {
        let mut pool = warm_pool(&lists);
        let t = Instant::now();
        for list in &lists {
            if batch {
                pool.read_all(list, |access| {
                    black_box(access);
                });
            } else {
                for &page in list {
                    black_box(pool.access(page, false));
                }
            }
        }
        (t.elapsed().as_nanos(), pool)
    };
    let (mut per_touch, mut batch) = (u128::MAX, u128::MAX);
    for _ in 0..5 {
        let (t_touch, by_touch) = pass(false);
        let (t_batch, by_batch) = pass(true);
        per_touch = per_touch.min(t_touch);
        batch = batch.min(t_batch);
        assert_eq!(by_batch.stats(), by_touch.stats(), "counters differ");
        assert!(
            by_batch.recency().eq(by_touch.recency()),
            "recency order differs"
        );
    }
    let (hits, misses, _) = warm.stats();
    let speedup = per_touch as f64 / batch as f64;
    println!(
        "micro smoke: {} queries, {touches} touches ({:.2}% hits warming), per-touch {per_touch} ns, batch {batch} ns, speedup {speedup:.2}x",
        lists.len(),
        100.0 * hits as f64 / (hits + misses) as f64,
    );
    assert!(
        batch <= per_touch,
        "batched touches regressed below the per-touch loop ({speedup:.2}x)"
    );
    println!("micro smoke: PASS");
}

/// End-to-end query execution through pool and cache.
fn bench_db_query(c: &mut Criterion) {
    let mut rng = SimRng::new(3);
    let db = Database::generate(DbScale::small(), &mut rng);
    let mut server = MySqlServer::new(db, MySqlConfig::default());
    server.prewarm(0.8);
    let mut i = 0u32;
    let mut group = c.benchmark_group("mysql");
    group.sample_size(2_000_000);
    group.bench_function("get_item", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let work = server.execute(
                Query::GetItem {
                    item: ItemId(i % 200),
                },
                0,
            );
            black_box((work.cpu_cycles, work.ios.len()))
        })
    });
    group.finish();
}

/// Markov transition sampling.
fn bench_transition(c: &mut Criterion) {
    let table = TransitionTable::bidding();
    let mut rng = SimRng::new(5);
    let mut state = TransitionTable::entry();
    let mut group = c.benchmark_group("transition");
    group.sample_size(5_000_000);
    group.bench_function("next", |b| {
        b.iter(|| {
            if let cloudchar_rubis::NextAction::Goto(next) = table.next(state, &mut rng) {
                state = next;
            }
            black_box(state)
        })
    });
    group.finish();
}

/// Full 518-metric synthesis for one host sample.
fn bench_metric_synthesis(c: &mut Criterion) {
    let raw = cloudchar_monitor::RawHostSample {
        dt_s: 2.0,
        cpu_cycles: 1e9,
        cpu_capacity_cycles: 4.48e10,
        user_frac: 0.7,
        mem_total_kb: 2e6,
        mem_used_kb: 5e5,
        mem_cached_kb: 1e5,
        disk_read_bytes: 2e5,
        disk_write_bytes: 4e5,
        disk_reads: 20.0,
        disk_writes: 40.0,
        net_rx_bytes: 1e6,
        net_tx_bytes: 5e6,
        net_rx_pkts: 900.0,
        net_tx_pkts: 3600.0,
        cswch: 8000.0,
        intr: 4000.0,
        cores: 2,
        core_hz: 2.8e9,
        ..Default::default()
    };
    let mut group = c.benchmark_group("synthesize");
    group.sample_size(30_000);
    group.bench_function("518_metrics", |b| {
        b.iter(|| {
            let s =
                cloudchar_monitor::synthesize_sysstat(&raw, cloudchar_monitor::Source::VmSysstat);
            let p = cloudchar_monitor::synthesize_perf(&raw);
            black_box((s.len(), p.len()))
        })
    });
    group.finish();
}

/// Distribution sampling throughput.
fn bench_distributions(c: &mut Criterion) {
    let mut rng = SimRng::new(7);
    let exp = Dist::exp(7.0);
    let erl = Dist::Erlang { k: 3, mean: 1e6 };
    let mut group = c.benchmark_group("dist");
    group.sample_size(2_000_000);
    group.bench_function("exponential", |b| {
        b.iter(|| black_box(exp.sample(&mut rng)))
    });
    group.bench_function("erlang3", |b| b.iter(|| black_box(erl.sample(&mut rng))));
    group.finish();
}

/// Simulated-seconds-per-wall-second for the full stack (headline
/// simulator speed).
fn bench_sim_speed(c: &mut Criterion) {
    use cloudchar_core::{run, Deployment, ExperimentConfig};
    use cloudchar_rubis::WorkloadMix;
    let mut g = c.benchmark_group("simulator_speed");
    g.sample_size(10);
    g.bench_function("virt_1000_clients_30s", |b| {
        b.iter(|| {
            let mut cfg = ExperimentConfig::paper(Deployment::Virtualized, WorkloadMix::BROWSING);
            cfg.duration = SimDuration::from_secs(30);
            black_box(run(cfg))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_scheduler,
    bench_buffer_pool,
    bench_query_touch,
    bench_db_query,
    bench_transition,
    bench_metric_synthesis,
    bench_distributions,
    bench_sim_speed
);
fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        benches();
    }
}
