//! Integration tests for engine snapshots and the cross-query VCP cache:
//! round-trip fidelity, cache correctness and compatibility rejection.

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, SimilarityEngine, SnapshotError, VcpConfig};
use esh_minic::demo;

/// A small multi-vendor corpus plus a query procedure from a different
/// toolchain, exercising real cross-compiler matching.
fn corpus_engine() -> (SimilarityEngine, esh_asm::Procedure) {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));

    let config = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    let mut engine = SimilarityEngine::new(config);
    for (i, f) in [demo::saturating_sum(), demo::wget_like(), demo::ws_snmp_like()]
        .iter()
        .enumerate()
    {
        engine.add_target(format!("clang:{i}"), &clang.compile_function(f));
        engine.add_target(format!("icc:{i}"), &icc.compile_function(f));
    }
    let query = gcc.compile_function(&demo::saturating_sum());
    (engine, query)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esh-snapshot-test-{name}-{}", std::process::id()))
}

#[test]
fn round_trip_scores_are_bit_identical() {
    let (engine, query) = corpus_engine();
    let path = temp_path("round-trip");
    engine.save(&path).unwrap();
    let reloaded = SimilarityEngine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.target_count(), engine.target_count());
    assert_eq!(reloaded.class_count(), engine.class_count());

    let a = engine.query(&query);
    let b = reloaded.query(&query);
    assert_eq!(a.scores.len(), b.scores.len());
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.target, y.target);
        assert_eq!(x.name, y.name);
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
        assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
        assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
    }
    assert_eq!(a.query_strands, b.query_strands);
    assert_eq!(a.query_strand_occurrences, b.query_strand_occurrences);
}

#[test]
fn warm_query_hits_cache_with_zero_solver_calls() {
    let (engine, query) = corpus_engine();

    let cold = engine.query(&query);
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 0, "first query must not hit");
    assert!(stats.misses > 0, "first query must populate the cache");
    // Refine-top-K re-pricings insert entries without touching the
    // hit/miss counters; they are tracked by `refined_pairs` instead.
    assert_eq!(
        stats.entries as u64,
        stats.misses + engine.prefilter_stats().refined_pairs
    );

    engine.reset_cache_counters();
    let warm = engine.query(&query);
    let stats = engine.cache_stats();
    // Zero misses ⇒ zero vcp_pair computations ⇒ zero new solver calls.
    assert_eq!(stats.misses, 0, "warm query must not invoke the verifier");
    assert!(stats.hits > 0);
    assert!(stats.hit_rate() > 0.9);

    for (x, y) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
        assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
        assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
    }
}

#[test]
fn persisted_cache_serves_a_fresh_process() {
    let (engine, query) = corpus_engine();
    engine.query(&query);
    let entries_before = engine.cache_stats().entries;
    assert!(entries_before > 0);

    let path = temp_path("warm-cache");
    engine.save_with_cache(&path).unwrap();
    let reloaded = SimilarityEngine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let stats = reloaded.cache_stats();
    assert_eq!(stats.entries, entries_before);
    reloaded.query(&query);
    assert_eq!(
        reloaded.cache_stats().misses,
        0,
        "restored cache must cover the repeated query"
    );
}

#[test]
fn mismatched_config_fingerprint_is_rejected() {
    let (engine, _) = corpus_engine();
    let path = temp_path("fingerprint");
    engine.save(&path).unwrap();

    // Same snapshot, different expected config ⇒ refuse to serve.
    let other = EngineConfig {
        vcp: VcpConfig {
            min_strand_vars: engine.config().vcp.min_strand_vars + 1,
            ..engine.config().vcp
        },
        ..engine.config().clone()
    };
    match SimilarityEngine::load_compatible(&path, &other) {
        Err(SnapshotError::ConfigMismatch {
            found,
            expected,
            kind,
            ..
        }) => {
            assert_eq!(found, engine.config().fingerprint());
            assert_eq!(expected, other.fingerprint());
            assert_eq!(kind, esh_core::ConfigMismatchKind::Incompatible);
        }
        Err(e) => panic!("expected ConfigMismatch, got {e}"),
        Ok(_) => panic!("expected ConfigMismatch, got a loaded engine"),
    }

    // The matching config still loads.
    let same = engine.config().clone();
    assert!(SimilarityEngine::load_compatible(&path, &same).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn thread_count_does_not_affect_compatibility() {
    // `threads` is an execution detail, not a corpus property: snapshots
    // built with one parallelism level must load under another.
    let (engine, _) = corpus_engine();
    let path = temp_path("threads");
    engine.save(&path).unwrap();

    let mut other = engine.config().clone();
    other.threads = engine.config().threads + 3;
    assert_eq!(other.fingerprint(), engine.config().fingerprint());
    assert!(SimilarityEngine::load_compatible(&path, &other).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_format_version_is_rejected() {
    let (engine, _) = corpus_engine();
    let path = temp_path("version");
    engine.save(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let needle = format!("\"format_version\":{}", esh_core::SNAPSHOT_FORMAT_VERSION);
    assert!(text.contains(&needle), "snapshot must record its version");
    let tampered = text.replace(&needle, "\"format_version\":999");
    std::fs::write(&path, tampered).unwrap();

    match SimilarityEngine::load(&path) {
        Err(SnapshotError::VersionMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, 999);
            assert_eq!(expected, esh_core::SNAPSHOT_FORMAT_VERSION);
        }
        Err(e) => panic!("expected VersionMismatch, got {e}"),
        Ok(_) => panic!("expected VersionMismatch, got a loaded engine"),
    }

    // A previous-version document in the old config shape (nullable
    // staged-pricing knobs, an `enabled` switch) is refused on its
    // version, not on the shape it no longer parses as.
    let prev = esh_core::SNAPSHOT_FORMAT_VERSION - 1;
    let old_shape = text
        .replace(&needle, &format!("\"format_version\":{prev}"))
        .replace("\"ambiguity_window\":0.2", "\"ambiguity_window\":null")
        .replace("\"vectors\":", "\"enabled\":true,\"vectors\":");
    assert!(old_shape.contains("\"enabled\":true,"));
    std::fs::write(&path, old_shape).unwrap();
    match SimilarityEngine::load(&path) {
        Err(SnapshotError::VersionMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, prev);
            assert_eq!(expected, esh_core::SNAPSHOT_FORMAT_VERSION);
        }
        Err(e) => panic!("expected VersionMismatch, got {e}"),
        Ok(_) => panic!("expected VersionMismatch, got a loaded engine"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tampered_config_is_rejected() {
    // Editing the embedded config without refreshing the fingerprint must
    // fail the recompute check on load.
    let (engine, _) = corpus_engine();
    let path = temp_path("tamper");
    engine.save(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let needle = format!("\"size_ratio\":{:?}", engine.config().vcp.size_ratio);
    assert!(text.contains(&needle), "snapshot must embed the config");
    let tampered = text.replace(&needle, "\"size_ratio\":0.123456");
    std::fs::write(&path, tampered).unwrap();

    match SimilarityEngine::load(&path) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        Err(e) => panic!("expected ConfigMismatch, got {e}"),
        Ok(_) => panic!("expected ConfigMismatch, got a loaded engine"),
    }
    std::fs::remove_file(&path).ok();
}
