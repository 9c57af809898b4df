//! `esh bench-prefilter`: pruned vs exhaustive engine comparison.
//!
//! Builds the cross-compiler corpus twice — once with the semantic-sketch
//! prefilter *prune tier* enabled (the default [`EngineConfig`] with
//! refine-top-K disabled, so the numbers isolate the sketch margin) and
//! once with the tier absent entirely — runs the same CVE queries through
//! both, and compares:
//!
//! * **wall time** per mode (corpus build + all queries),
//! * **SAT queries** and **verifier calls** (VCP-cache misses count
//!   `vcp_pair` invocations) per mode,
//! * **rank agreement**: the top-1 answer of every query must be
//!   identical, and the full top-10 name agreement is reported.
//!
//! The full run enforces the acceptance bar — ≥40% fewer SAT queries with
//! identical top-1 rankings; `--smoke` keeps the 100%-top-1 gate only and
//! shrinks the query count for CI. Full-run results land in
//! `BENCH_prefilter.json` at the repo root; a smoke run only prints them.

use std::time::Instant;

use esh_core::{EngineConfig, PrefilterStatsSnapshot, SimilarityEngine, TargetId};
use esh_corpus::{Corpus, CorpusConfig};

/// How many ranked entries per query participate in the agreement report.
const TOP_N: usize = 10;

/// One mode's measurements.
struct ModeRun {
    /// Corpus-build wall time (decompose + lift + sign + sketch), ms.
    build_ms: u128,
    /// Total query wall time, ms.
    query_ms: u128,
    /// SAT queries issued across every query.
    sat_queries: u64,
    /// `vcp_pair` invocations: VCP-cache misses plus refine-top-K
    /// re-pricings (refine's lookups bypass the cache counters).
    verifier_calls: u64,
    /// Per-query ranked `(name, ges bits)` lists, self-match excluded.
    rankings: Vec<Vec<(String, u64)>>,
    /// Prefilter counters (all zero for the exhaustive mode).
    prefilter: PrefilterStatsSnapshot,
}

fn run_mode(corpus: &Corpus, queries: &[usize], sketch: bool) -> ModeRun {
    let config = if sketch {
        // The *prune tier* in isolation: refine-top-K is disabled so the
        // measured SAT savings are the sketch margin's alone. The staged
        // pipeline with window refinement is bench-rankquality's subject —
        // this bench's depressed top-10 agreement is exactly the depth
        // sacrifice that bench exists to measure the recovery of.
        let mut config = EngineConfig::default();
        if let Some(sketch) = &mut config.sketch {
            sketch.refine_top_k = 0;
        }
        config
    } else {
        EngineConfig {
            sketch: None,
            ..EngineConfig::default()
        }
    };
    let t0 = Instant::now();
    let mut engine = SimilarityEngine::new(config);
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    let build_ms = t0.elapsed().as_millis();

    let t1 = Instant::now();
    let rankings = queries
        .iter()
        .map(|&qi| {
            let scores = engine.query(&corpus.procs[qi].proc_);
            scores
                .ranked()
                .into_iter()
                .filter(|s| s.target != TargetId(qi))
                .take(TOP_N)
                .map(|s| (s.name.clone(), s.ges.to_bits()))
                .collect()
        })
        .collect();
    let prefilter = engine.prefilter_stats();
    ModeRun {
        build_ms,
        query_ms: t1.elapsed().as_millis(),
        sat_queries: engine.solver_stats().sat_queries,
        verifier_calls: engine.cache_stats().misses + prefilter.refined_pairs,
        rankings,
        prefilter,
    }
}

/// Runs the comparison and publishes `BENCH_prefilter.json`. `smoke` shrinks
/// the query count for CI. Returns an error when top-1 rankings diverge,
/// or (full mode only) when the SAT-query reduction misses 40%.
pub fn run(smoke: bool) -> Result<(), String> {
    let t0 = Instant::now();
    let n_queries = if smoke { 2 } else { 4 };

    eprintln!("bench-prefilter: building corpus...");
    let corpus = Corpus::build(&CorpusConfig::small());
    // Distinct CVE procedures, by corpus index, mirroring bench-serve's
    // query set.
    let mut names: Vec<String> = corpus
        .procs
        .iter()
        .filter(|p| p.cve.is_some())
        .map(|p| p.display())
        .collect();
    names.sort();
    names.dedup();
    names.truncate(n_queries);
    let queries: Vec<usize> = names
        .iter()
        .map(|q| {
            corpus
                .procs
                .iter()
                .position(|p| p.display() == *q)
                .expect("query name came from the corpus")
        })
        .collect();
    if queries.len() < n_queries {
        return Err(format!(
            "corpus has only {} CVE queries, need {n_queries}",
            queries.len()
        ));
    }

    eprintln!("bench-prefilter: exhaustive pass ({} queries)...", queries.len());
    let off = run_mode(&corpus, &queries, false);
    eprintln!("bench-prefilter: prefiltered pass...");
    let on = run_mode(&corpus, &queries, true);

    // Rank agreement between the two modes — reported per query, not just
    // in aggregate, so a depth regression localizes to the query that
    // caused it instead of hiding inside the mean.
    let mut top1_identical = true;
    let mut per_query: Vec<f64> = Vec::with_capacity(on.rankings.len());
    for (a, b) in on.rankings.iter().zip(&off.rankings) {
        if a.first().map(|e| &e.0) != b.first().map(|e| &e.0) {
            top1_identical = false;
        }
        let slots = a.len().max(b.len());
        let agree = a.iter().zip(b).filter(|(x, y)| x.0 == y.0).count();
        per_query.push(agree as f64 / slots.max(1) as f64);
    }
    let topn_agreement =
        per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
    let topn_agreement_min = per_query.iter().copied().fold(f64::INFINITY, f64::min);
    let per_query_json: Vec<String> = per_query.iter().map(|x| format!("{x:.4}")).collect();
    let per_query_json = format!("[{}]", per_query_json.join(", "));
    let sat_reduction = if off.sat_queries > 0 {
        1.0 - on.sat_queries as f64 / off.sat_queries as f64
    } else {
        0.0
    };
    let call_reduction = if off.verifier_calls > 0 {
        1.0 - on.verifier_calls as f64 / off.verifier_calls as f64
    } else {
        0.0
    };
    eprintln!(
        "bench-prefilter: SAT {} -> {} ({:.1}% fewer), verifier calls {} -> {}, \
         top-1 identical: {top1_identical}, top-{TOP_N} agreement mean {:.1}% min {:.1}%",
        off.sat_queries,
        on.sat_queries,
        sat_reduction * 100.0,
        off.verifier_calls,
        on.verifier_calls,
        topn_agreement * 100.0,
        topn_agreement_min * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"prefilter\",\n  \"mode\": \"{mode}\",\n  \
         \"corpus_procs\": {procs},\n  \"queries\": {nq},\n  \
         \"top1_identical\": {top1_identical},\n  \
         \"top{TOP_N}_agreement\": {topn_agreement:.4},\n  \
         \"top{TOP_N}_agreement_min\": {topn_agreement_min:.4},\n  \
         \"top{TOP_N}_agreement_per_query\": {per_query_json},\n  \
         \"exhaustive\": {{ \"build_ms\": {ob}, \"query_ms\": {oq}, \
         \"sat_queries\": {os}, \"verifier_calls\": {oc} }},\n  \
         \"prefiltered\": {{ \"build_ms\": {nb}, \"query_ms\": {nq2}, \
         \"sat_queries\": {ns}, \"verifier_calls\": {ncalls}, \
         \"pairs_pruned\": {pp}, \"sketch_collisions\": {sc}, \
         \"exact_fallbacks\": {ef} }},\n  \
         \"sat_query_reduction\": {sat_reduction:.4},\n  \
         \"verifier_call_reduction\": {call_reduction:.4},\n  \
         \"elapsed_ms\": {elapsed}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        procs = corpus.procs.len(),
        nq = queries.len(),
        ob = off.build_ms,
        oq = off.query_ms,
        os = off.sat_queries,
        oc = off.verifier_calls,
        nb = on.build_ms,
        nq2 = on.query_ms,
        ns = on.sat_queries,
        ncalls = on.verifier_calls,
        pp = on.prefilter.pairs_pruned,
        sc = on.prefilter.sketch_collisions,
        ef = on.prefilter.exact_fallbacks,
        elapsed = t0.elapsed().as_millis(),
    );
    esh_core::publish_bench_json("prefilter", &json, !smoke)?;

    if !top1_identical {
        return Err("top-1 rankings diverged between prefiltered and exhaustive".into());
    }
    if !smoke && sat_reduction < 0.40 {
        return Err(format!(
            "SAT-query reduction {:.1}% misses the 40% bar",
            sat_reduction * 100.0
        ));
    }
    println!("bench-prefilter: passed");
    Ok(())
}
