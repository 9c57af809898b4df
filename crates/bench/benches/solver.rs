//! Micro-benchmarks of the equivalence engine: normalization, random
//! refutation and SAT decisions — the per-query costs behind §5.5's
//! performance discussion.

use criterion::{criterion_group, criterion_main, Criterion};
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, SimilarityEngine, SolverPerf};
use esh_minic::demo;
use esh_solver::equiv::{EquivChecker, Verdict};
use esh_solver::eval::{eval, Assignment};
use esh_solver::TermPool;
use std::hint::black_box;
use std::time::Instant;

fn bench_normalization(c: &mut Criterion) {
    c.bench_function("solver/normalize_linear_combination", |b| {
        b.iter(|| {
            let mut p = TermPool::new();
            let x = p.var(0, 64);
            let y = p.var(1, 64);
            let five = p.constant(5, 64);
            let mut acc = p.mul(vec![five, x]);
            for k in 1..20i64 {
                let ck = p.constant(k as u64, 64);
                let t = p.mul(vec![ck, y]);
                acc = p.add2(acc, t);
            }
            black_box(acc)
        })
    });
}

fn bench_random_refutation(c: &mut Criterion) {
    let mut p = TermPool::new();
    let x = p.var(0, 64);
    let y = p.var(1, 64);
    let a = p.xor(vec![x, y]);
    let one = p.constant(1, 64);
    let xp = p.add2(x, one);
    let b = p.xor(vec![xp, y]);
    c.bench_function("solver/random_refute", |b_| {
        b_.iter(|| {
            let asn = Assignment::random(black_box(7));
            black_box(eval(&p, a, &asn) != eval(&p, b, &asn))
        })
    });
}

fn bench_sat_identity(c: &mut Criterion) {
    c.bench_function("solver/sat_prove_xor_identity_16bit", |b| {
        b.iter(|| {
            let mut ec = EquivChecker::new();
            let x = ec.pool.var(0, 16);
            let y = ec.pool.var(1, 16);
            let xor = ec.pool.xor(vec![x, y]);
            let or = ec.pool.or(vec![x, y]);
            let and = ec.pool.and(vec![x, y]);
            let diff = ec.pool.sub(or, and);
            assert_eq!(ec.check_eq(xor, diff), Verdict::Equal);
        })
    });
}

fn bench_sat_mul(c: &mut Criterion) {
    c.bench_function("solver/sat_mul_strength_reduction_12bit", |b| {
        b.iter(|| {
            let mut ec = EquivChecker::new();
            let x = ec.pool.var(0, 12);
            let y = ec.pool.var(1, 12);
            // (x*y) & 1 == (x & 1) * (y & 1): forces real multiplier blasting.
            let one = ec.pool.constant(1, 12);
            let xy = ec.pool.mul(vec![x, y]);
            let lhs = ec.pool.and(vec![xy, one]);
            let xa = ec.pool.and(vec![x, one]);
            let ya = ec.pool.and(vec![y, one]);
            let rhs = ec.pool.mul(vec![xa, ya]);
            assert_eq!(ec.check_eq(lhs, rhs), Verdict::Equal);
        })
    });
}

/// Whether the bench runs in CI smoke mode (`ESH_BENCH_QUICK=1`): a
/// smaller corpus and fewer samples, enough to prove the harness works.
fn quick_mode() -> bool {
    std::env::var("ESH_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Runs the full query pipeline (decompose → prefilter → vcp_matrix →
/// scoring) over a demo CVE corpus with the SAT backend in the given
/// mode, and returns total query wall time plus the engine's aggregate
/// solver counters.
fn run_vcp_workload(incremental: bool, nfuncs: usize) -> (f64, SolverPerf) {
    let mut config = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    config.equiv.incremental = incremental;
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    let mut engine = SimilarityEngine::new(config);
    for (i, (_, f)) in demo::cve_functions().into_iter().take(nfuncs).enumerate() {
        engine.add_target(format!("clang-{i}"), &clang.compile_function(&f));
        engine.add_target(format!("icc-{i}"), &icc.compile_function(&f));
    }
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let queries: Vec<_> = demo::cve_functions()
        .into_iter()
        .take(nfuncs)
        .map(|(_, f)| gcc.compile_function(&f))
        .collect();
    let t0 = Instant::now();
    for q in &queries {
        black_box(engine.query(q));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (wall_ms, engine.solver_stats())
}

fn perf_json(wall_ms: f64, p: &SolverPerf) -> String {
    format!(
        "{{\n      \"wall_ms\": {wall_ms:.2},\n      \"sat_queries\": {},\n      \
         \"conflicts\": {},\n      \"conflicts_per_query\": {:.3},\n      \
         \"sat_time_ms\": {:.2},\n      \"blast_cache_hits\": {},\n      \
         \"blast_cache_misses\": {},\n      \"retained_learnts\": {},\n      \
         \"learnts_dropped\": {},\n      \"solver_resets\": {}\n    }}",
        p.sat_queries,
        p.conflicts,
        p.conflicts_per_query(),
        p.sat_time_ns as f64 / 1e6,
        p.blast_cache_hits,
        p.blast_cache_misses,
        p.retained_learnts,
        p.learnts_dropped,
        p.solver_resets,
    )
}

/// Head-to-head: the whole vcp_matrix workload with fresh-blaster SAT
/// decisions vs the shared incremental solver. A full run writes the
/// comparison to `BENCH_solver.json` at the repo root; quick mode only
/// prints it.
fn bench_fresh_vs_incremental(c: &mut Criterion) {
    let nfuncs = if quick_mode() {
        2
    } else {
        demo::cve_functions().len()
    };
    let (fresh_ms, fresh) = run_vcp_workload(false, nfuncs);
    let (inc_ms, inc) = run_vcp_workload(true, nfuncs);
    let json = format!(
        "{{\n  \"bench\": \"solver/vcp_matrix_fresh_vs_incremental\",\n  \
         \"quick_mode\": {},\n  \"functions\": {nfuncs},\n  \
         \"fresh\": {},\n  \"incremental\": {},\n  \
         \"wall_speedup\": {:.3},\n  \"conflict_ratio\": {:.3}\n}}\n",
        quick_mode(),
        perf_json(fresh_ms, &fresh),
        perf_json(inc_ms, &inc),
        fresh_ms / inc_ms.max(1e-9),
        inc.conflicts as f64 / (fresh.conflicts as f64).max(1.0),
    );
    esh_core::publish_bench_json("solver", &json, !quick_mode()).expect("publish BENCH_solver");
    println!(
        "vcp_matrix workload ({nfuncs} funcs): fresh {fresh_ms:.1} ms / {} conflicts, \
         incremental {inc_ms:.1} ms / {} conflicts",
        fresh.conflicts, inc.conflicts,
    );

    let samples = if quick_mode() { 1 } else { 5 };
    let timed = |name: &str, incremental: bool| {
        let mut group = Criterion::default().sample_size(samples);
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_vcp_workload(incremental, nfuncs)))
        });
    };
    timed("solver/vcp_matrix_fresh_blast", false);
    timed("solver/vcp_matrix_incremental", true);
    let _ = c;
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_normalization, bench_random_refutation, bench_sat_identity, bench_sat_mul,
        bench_fresh_vs_incremental
);
criterion_main!(benches);
