//! Exact pins on the pricing-ladder counters of a sharded engine.
//!
//! Every pair a query prices lands in exactly one `PrefilterStats`
//! bucket, and whether it reaches the VCP cache (and whether its class
//! record is decoded) follows from the same decision. Rankings alone
//! cannot see a pair that moved between buckets — a pruned pair and a
//! verified pair with a below-margin VCP score the same — so these
//! counters are pinned to exact values over a fixed corpus and query
//! sequence, under both pricing profiles: the staged default (margin,
//! ambiguity window, probe vectors, refine window) and the pre-probe
//! LSH-only profile.

use esh_asm::Procedure;
use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, PrefilterConfig, SimilarityEngine};
use esh_minic::demo;

fn corpus_and_queries() -> (Vec<(String, Procedure)>, Vec<Procedure>) {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let corpus = funcs
        .iter()
        .map(|(name, f)| (format!("t-{name}"), clang.compile_function(f)))
        .collect();
    let queries = funcs
        .iter()
        .take(4)
        .map(|(_, f)| gcc.compile_function(f))
        .collect();
    (corpus, queries)
}

/// Every counter the pricing ladder drives.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    pairs_pruned: u64,
    sketch_collisions: u64,
    exact_fallbacks: u64,
    ambiguous_probes: u64,
    probe_escalations: u64,
    refined_pairs: u64,
    refine_passes: u64,
    cache_hits: u64,
    cache_misses: u64,
    classes_decoded: u64,
}

fn counters(engine: &SimilarityEngine) -> Counters {
    let p = engine.prefilter_stats();
    let c = engine.cache_stats();
    let s = engine.shard_stats();
    Counters {
        pairs_pruned: p.pairs_pruned,
        sketch_collisions: p.sketch_collisions,
        exact_fallbacks: p.exact_fallbacks,
        ambiguous_probes: p.ambiguous_probes,
        probe_escalations: p.probe_escalations,
        refined_pairs: p.refined_pairs,
        refine_passes: p.refine_passes,
        cache_hits: c.hits,
        cache_misses: c.misses,
        classes_decoded: s.classes_decoded_total,
    }
}

/// Builds the corpus under `sketch`, writes it as a sharded index (two
/// targets per shard), reopens it lazily, runs every query once and the
/// first one again (the repeat is what makes cache hits), and reads the
/// counters after the first query and after the whole sequence.
fn run(sketch: PrefilterConfig, tag: &str) -> (Counters, Counters) {
    let (corpus, queries) = corpus_and_queries();
    let mut built = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: Some(sketch),
        ..EngineConfig::default()
    });
    for (name, p) in &corpus {
        built.add_target(name.clone(), p);
    }
    let dir = std::env::temp_dir().join(format!(
        "esh-prefilter-counters-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    esh_index::write_sharded(&built, &dir, 2).unwrap();
    drop(built);

    let engine = esh_index::open_sharded(&dir).unwrap();
    engine.query(&queries[0]);
    let first = counters(&engine);
    for q in queries.iter().skip(1).chain(queries.first()) {
        engine.query(q);
    }
    let all = counters(&engine);
    std::fs::remove_dir_all(&dir).ok();
    (first, all)
}

// The expected values pin the pricing behaviour: any rework of the
// ladder must reproduce them exactly.

#[test]
fn staged_profile_counters_are_pinned() {
    let got = run(PrefilterConfig::default(), "staged");
    assert_eq!(
        got,
        (
            Counters {
                pairs_pruned: 41,
                sketch_collisions: 37,
                exact_fallbacks: 58,
                ambiguous_probes: 75,
                probe_escalations: 39,
                refined_pairs: 37,
                refine_passes: 1,
                cache_hits: 0,
                cache_misses: 58,
                classes_decoded: 41,
            },
            Counters {
                pairs_pruned: 276,
                sketch_collisions: 125,
                exact_fallbacks: 219,
                ambiguous_probes: 387,
                probe_escalations: 151,
                refined_pairs: 204,
                refine_passes: 5,
                cache_hits: 58,
                cache_misses: 161,
                classes_decoded: 57,
            },
        )
    );
}

#[test]
fn lsh_only_profile_counters_are_pinned() {
    let got = run(PrefilterConfig::lsh_only(), "lsh");
    assert_eq!(
        got,
        (
            Counters {
                pairs_pruned: 62,
                sketch_collisions: 37,
                exact_fallbacks: 0,
                ambiguous_probes: 0,
                probe_escalations: 0,
                refined_pairs: 58,
                refine_passes: 1,
                cache_hits: 0,
                cache_misses: 37,
                classes_decoded: 41,
            },
            Counters {
                pairs_pruned: 370,
                sketch_collisions: 125,
                exact_fallbacks: 0,
                ambiguous_probes: 0,
                probe_escalations: 0,
                refined_pairs: 266,
                refine_passes: 5,
                cache_hits: 37,
                cache_misses: 88,
                classes_decoded: 57,
            },
        )
    );
}
