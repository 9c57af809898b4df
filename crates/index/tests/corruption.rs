//! Shard corruption on the lazy path: a byte flipped in a
//! *not-yet-loaded* shard file must surface as a typed `Corrupted`
//! error — naming the shard file — on the first query that touches the
//! shard, while every other shard keeps serving. Under sub-shard
//! demand decoding the blast radius shrinks further, to a single
//! record: a byte flipped in an *undecoded neighbour record* fails only
//! queries that actually price that record, with an error naming the
//! file and the class. Corruption is a per-item failure, never a
//! poisoned engine.

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{CancelToken, EngineConfig, PrefilterConfig, QueryError, SimilarityEngine};
use esh_index::{open_sharded, write_sharded};
use esh_minic::demo;

fn scratch(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("esh-corrupt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

#[test]
fn byte_flip_in_unloaded_shard_fails_only_queries_touching_it() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    // The pure-LSH profile with refinement off keeps a query's shard
    // fan-out to band-colliding shards only — the healthy query below
    // must provably never need the corrupted shard. (Under the default
    // staged-pricing profile every query's refine pass scans the whole
    // 8-target corpus and would trip over the tampered file.)
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: Some(PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        }),
        ..EngineConfig::default()
    });
    for (name, f) in &funcs {
        engine.add_target(format!("t-{name}"), &clang.compile_function(f));
    }
    let dir = scratch("lazy");
    write_sharded(&engine, &dir, 1).unwrap();
    drop(engine);

    // Flip one byte in the *last* target's shard, before anything loads
    // it. One target per shard means the victim's classes live there and
    // nowhere else.
    let victims: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".bin"))
        })
        .collect();
    let victim = victims.iter().max().unwrap();
    let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, &bytes).unwrap();

    // Open is lazy: the tamper goes unnoticed until a query needs the
    // shard.
    let lazy = open_sharded(&dir).unwrap();

    // A query for the FIRST function scores fine — its shard is intact.
    let healthy_q = gcc.compile_function(&funcs[0].1);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("healthy shards must keep serving");
    assert_eq!(ok.ranked()[0].name, format!("t-{}", funcs[0].0));

    // A query for the LAST function must touch the corrupted shard (its
    // own class lives there) and fail with a typed error naming the
    // shard file.
    let poisoned_q = gcc.compile_function(&funcs.last().unwrap().1);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(msg.contains(&victim_name), "error must name the shard file: {msg}");
            assert!(msg.contains("checksum mismatch"), "error must say why: {msg}");
        }
        Ok(_) => panic!("query over a corrupted shard reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    // The engine is not poisoned: healthy queries still serve, with
    // identical results, and the corrupted query keeps failing the same
    // way (the load is retried, not latched).
    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive a corrupted-shard error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }
    assert!(matches!(
        lazy.query_cancellable(&poisoned_q, &CancelToken::new()),
        Err(QueryError::Corrupted(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

/// Sub-shard demand decoding narrows the corruption blast radius from a
/// shard file to a single record: with two targets sharing one shard,
/// byte-flips in every record belonging to one target leave the *other*
/// target's queries serving — same shard, same mapping, neighbouring
/// records never checksummed because they are never decoded — while a
/// query that actually prices a poisoned record fails with a typed
/// error naming both the shard file and the class.
#[test]
fn byte_flip_in_undecoded_neighbour_record_fails_only_queries_touching_it() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    // The same no-collision pair the shard-level test leans on — first
    // and last CVE functions — but co-resident in ONE shard, so only
    // record granularity can separate them.
    let (healthy_name, healthy_f) = &funcs[0];
    let (victim_name, victim_f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: Some(PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        }),
        ..EngineConfig::default()
    });
    engine.add_target(format!("t-{healthy_name}"), &clang.compile_function(healthy_f));
    engine.add_target(format!("t-{victim_name}"), &clang.compile_function(victim_f));
    let export = engine.export_corpus();
    let dir = scratch("neighbour");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    // Classes owned by the victim target and NOT by the healthy one —
    // the records whose bytes the healthy query must never checksum.
    let healthy_classes: std::collections::BTreeSet<usize> =
        export.targets[0].strands.iter().map(|&(ci, _)| ci).collect();
    let victim_classes: std::collections::BTreeSet<usize> = export.targets[1]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .filter(|ci| !healthy_classes.contains(ci))
        .collect();
    assert!(!victim_classes.is_empty(), "victim target shares every class");

    // Flip a byte in the middle of every victim record, straight through
    // the published record ranges. The structural region (header, table,
    // cache segment) is untouched, so the shard still *opens* fine.
    let shard_file = dir.join("shard-0000.bin");
    let mut bytes = std::fs::read(&shard_file).unwrap();
    let mut flipped = 0usize;
    for (ci, start, len) in esh_index::shard_record_ranges(&dir, 0).unwrap() {
        if victim_classes.contains(&ci) {
            bytes[(start + len / 2) as usize] ^= 0x40;
            flipped += 1;
        }
    }
    assert!(flipped > 0, "no record was flipped");
    std::fs::write(&shard_file, &bytes).unwrap();

    let lazy = open_sharded(&dir).unwrap();

    // The healthy target's query prices only its own records: the shard
    // opens (structural checksum intact), the poisoned neighbours stay
    // raw, and the query succeeds.
    let healthy_q = gcc.compile_function(healthy_f);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("records the query never decodes must not be able to fail it");
    assert_eq!(ok.ranked()[0].name, format!("t-{healthy_name}"));

    // The victim target's query must decode a poisoned record and fail,
    // naming the shard file and the class.
    let poisoned_q = gcc.compile_function(victim_f);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("shard-0000.bin"), "error must name the shard file: {msg}");
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(msg.contains("checksum mismatch"), "error must say why: {msg}");
        }
        Ok(_) => panic!("query over a poisoned record reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    // Not poisoned: the healthy query keeps serving identically from the
    // very same (still-open, partially-decoded) shard.
    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive a poisoned-record error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }
    let stats = lazy.shard_stats();
    assert!(
        stats.shards_partial >= 1,
        "the surviving shard should be partially decoded: {stats:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repairing_the_shard_restores_service_without_reopening() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let funcs = demo::cve_functions();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    for (name, f) in &funcs {
        engine.add_target(format!("t-{name}"), &clang.compile_function(f));
    }
    let dir = scratch("repair");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let shard0 = dir.join("shard-0000.bin");
    let original = std::fs::read(&shard0).unwrap();
    let mut tampered = original.clone();
    tampered[original.len() / 3] ^= 0x01;
    std::fs::write(&shard0, &tampered).unwrap();

    let lazy = open_sharded(&dir).unwrap();
    let q = gcc.compile_function(&funcs[0].1);
    assert!(matches!(
        lazy.query_cancellable(&q, &CancelToken::new()),
        Err(QueryError::Corrupted(_))
    ));

    // Restore the file: because loads are retried (no error latch in the
    // slot), the same engine recovers in place.
    std::fs::write(&shard0, &original).unwrap();
    let scores = lazy
        .query_cancellable(&q, &CancelToken::new())
        .expect("repaired shard must load on retry");
    assert_eq!(scores.ranked()[0].name, format!("t-{}", funcs[0].0));

    std::fs::remove_dir_all(&dir).ok();
}
