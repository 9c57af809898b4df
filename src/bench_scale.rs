//! `esh bench-scale`: the scale tier measured end to end.
//!
//! For each corpus size (1k/5k/10k/100k procedures; `--smoke` keeps 1k
//! only, `--max-procs N` drops every rung above `N`) the bench streams
//! the seeded synthetic corpus
//! ([`esh_corpus::scale::stream_scale_corpus_with_threads`]) straight
//! into an engine running the pure-LSH scale profile
//! ([`esh_core::PrefilterConfig::lsh_only`]), persists it as a sharded
//! binary index — plus a JSON snapshot at sizes
//! where parsing one is still tolerable — then measures what the scale
//! tier exists to improve:
//!
//! * **build throughput** — procedures ingested per second (streamed
//!   generation + compilation + decompose/lift/dedup/sketch),
//! * **cold-load time** — [`esh_index::open_sharded_with`] with `mmap`
//!   on *and* off (manifest + `core.bin` only; procedure bodies stay on
//!   disk until a query needs them), vs `SimilarityEngine::load`
//!   (parse the whole JSON document) where the baseline is measured,
//! * **query latency and shard fan-out** — ranked queries against the
//!   lazily loaded engine under per-record demand decoding, with shard
//!   residency, whole-shard prunes (the sketch-band sidecar), peak
//!   resident bytes, and decoded-vs-mapped bytes reported,
//! * **whole-decode baseline** — the same queries with demand decoding
//!   off (`EshxOpenOptions { demand: false }`, the v5 behavior where a
//!   touched shard decodes every record at open), for the latency and
//!   residency comparison the demand-decode tier is gated on,
//! * **memory-bounded serving** — the same queries repeated under a
//!   one-shard [`set_shard_budget`](esh_core::SimilarityEngine::set_shard_budget),
//!   gated on evictions happening, settled residency staying under the
//!   budget, and the ranked output staying bit-identical to the
//!   unbudgeted run.
//!
//! The bench *gates* on: the sharded cold-load beating the JSON load at
//! every size it is measured; the mmap cold-load never losing to the
//! read-into-buffer fallback; at least one whole shard pruned per query;
//! demand decoding decoding strictly fewer bytes than it maps, with at
//! least one partially-decoded shard after every query and rankings
//! bit-identical to the whole-decode baseline; at the 100k rung, the
//! cold demand-decode query at least 2× faster than whole-decode with
//! strictly lower peak residency; the budgeted invariants above; and a
//! byte-identity check — the ranked output of a sharded engine must
//! equal the JSON-loaded engine's bit for bit on the cross-compiler
//! paper corpus (371 procedures; `--smoke` uses the small 28-procedure
//! matrix). Full-run results land in `BENCH_scale.json`; a smoke run
//! only prints them.

use std::time::Instant;

use esh_core::{EngineConfig, PrefilterConfig, QueryScores, SimilarityEngine};
use esh_corpus::scale::{scale_matrix, stream_scale_corpus_with_threads, ScaleConfig};
use esh_corpus::{Corpus, CorpusConfig};
use esh_index::EshxOpenOptions;

/// Generation seed for the synthetic corpus (fixed: the bench is a
/// regression harness, not a fuzzer).
const SEED: u64 = 0x5CA1E;

/// Targets per shard for the persisted sharded indexes. Finer than the CLI
/// default (64): whole-shard pruning is a per-shard all-or-nothing
/// test, and on the digest-heavy synthetic corpus a 64-target shard
/// almost always has at least one band collision with some query
/// strand. Eight targets keeps shards coarse enough to amortize loads
/// while leaving the sketch-band sidecar real work to do.
const TARGETS_PER_SHARD: usize = 8;

/// Ranked queries issued against each lazily loaded index.
const QUERIES_PER_SIZE: usize = 2;

/// Largest size at which the JSON snapshot baseline is still measured.
/// Above it (the 100k rung) the near-gigabyte JSON document is the
/// failure mode the scale tier exists to retire, not a baseline worth
/// building — those entries report `null` for the JSON fields.
const JSON_BASELINE_CEILING: usize = 10_000;

/// Knobs the `esh bench-scale` CLI exposes.
pub struct BenchScaleOptions {
    /// Keep the 1k size and the small identity matrix (CI).
    pub smoke: bool,
    /// Compile threads for the streamed corpus build; `0` means one per
    /// matrix configuration.
    pub threads: usize,
    /// Query through mmap-backed shards (`false` = the read-into-buffer
    /// fallback). Both cold loads are measured either way; this picks
    /// which backing the query phases run on.
    pub mmap: bool,
    /// Skip corpus rungs above this size (`0` = run them all). The full
    /// ladder's 100k rung dominates wall time; `--max-procs 10000`
    /// keeps a local full run fast.
    pub max_procs: usize,
}

impl Default for BenchScaleOptions {
    fn default() -> BenchScaleOptions {
        BenchScaleOptions { smoke: false, threads: 0, mmap: true, max_procs: 0 }
    }
}

/// One corpus size's measurements.
struct SizeRun {
    procs: usize,
    build_ms: u128,
    json_bytes: u64,
    json_load_ms: Option<u128>,
    sharded_bytes: u64,
    mmap_load_ms: u128,
    buffered_load_ms: u128,
    query_ms: Vec<u128>,
    query_ms_whole: Vec<u128>,
    shards_total: u64,
    shards_loaded: u64,
    shards_pruned: u64,
    resident_bytes_peak: u64,
    resident_bytes_peak_whole: u64,
    decoded_bytes: u64,
    mapped_bytes: u64,
    classes_decoded: u64,
    shards_partial_min: u64,
    budget_bytes: u64,
    budget_resident_bytes: u64,
    budget_resident_peak: u64,
    budget_evicted: u64,
}

impl SizeRun {
    fn throughput(&self) -> f64 {
        self.procs as f64 / (self.build_ms.max(1) as f64 / 1000.0)
    }

    /// Cold-load time of the backing the query phases ran on.
    fn sharded_load_ms(&self, mmap: bool) -> u128 {
        if mmap { self.mmap_load_ms } else { self.buffered_load_ms }
    }
}

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esh-bench-scale-{}", std::process::id()))
}

/// The scale-tier engine profile: pure-LSH prefiltering, where the
/// sketch-band sidecar can prove whole shards irrelevant before fan-out.
fn scale_engine() -> SimilarityEngine {
    SimilarityEngine::new(EngineConfig {
        sketch: Some(PrefilterConfig::lsh_only()),
        ..EngineConfig::default()
    })
}

/// Best-of-5 open times for both shard backings, in ms, interleaved
/// (`mmap, buffered, mmap, buffered, ...`). Interleaved and best-of,
/// not sequential and first-of: the first open after a build pays the
/// page-cache fill, and a block of same-mode runs would charge cache
/// churn from the preceding phase to whichever mode ran first —
/// alternating gives both modes identical cache conditions, and the
/// minimum is the steady-state open cost.
fn cold_load_ms(eshx: &std::path::Path) -> Result<(u128, u128), String> {
    let mut best = [u128::MAX; 2];
    for _ in 0..5 {
        for (i, mmap) in [(0usize, true), (1, false)] {
            let t = Instant::now();
            let engine = esh_index::open_sharded_with(
                eshx,
                EshxOpenOptions { mmap, prune: true, demand: true },
            )
            .map_err(|e| e.to_string())?;
            best[i] = best[i].min(t.elapsed().as_millis());
            drop(engine);
        }
    }
    Ok((best[0], best[1]))
}

/// The per-size query battery: distinct sources compiled with one matrix
/// toolchain — each has an exact self-match in the corpus, so the
/// queries exercise the full pipeline including VCP.
fn query_battery() -> Vec<esh_asm::Procedure> {
    let tc = scale_matrix()[7]; // gcc 4.9 -O2
    let cc = esh_cc::Compiler::with_opt(tc.vendor, tc.version, tc.opt);
    (0..QUERIES_PER_SIZE as u64)
        .map(|k| cc.compile_function(&esh_minic::gen::generate_scale_source(SEED, k)))
        .collect()
}

fn assert_identical(a: &QueryScores, b: &QueryScores, what: &str) -> Result<(), String> {
    let ra = a.ranked();
    let rb = b.ranked();
    if ra.len() != rb.len() {
        return Err(format!("{what}: ranked lengths differ"));
    }
    for (x, y) in ra.iter().zip(&rb) {
        if x.name != y.name || x.ges.to_bits() != y.ges.to_bits() {
            return Err(format!("{what}: ranking diverges at `{}` vs `{}`", x.name, y.name));
        }
    }
    Ok(())
}

fn measure_size(procs: usize, opts: &BenchScaleOptions) -> Result<SizeRun, String> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let json_path = dir.join(format!("scale-{procs}.esh"));
    let eshx_path = dir.join(format!("scale-{procs}.eshx"));
    let threads = if opts.threads == 0 { scale_matrix().len() } else { opts.threads };

    eprintln!("bench-scale: [{procs}] streaming corpus into engine ({threads} threads)...");
    let config = ScaleConfig::new(procs, SEED);
    let t0 = Instant::now();
    let mut engine = scale_engine();
    let emitted = stream_scale_corpus_with_threads(&config, threads, |p| {
        engine.add_target(p.display(), &p.proc_);
    });
    let build_ms = t0.elapsed().as_millis();
    assert_eq!(emitted, procs);

    let summary =
        esh_index::write_sharded(&engine, &eshx_path, TARGETS_PER_SHARD).map_err(|e| e.to_string())?;
    let (json_bytes, json_load_ms) = if procs <= JSON_BASELINE_CEILING {
        engine.save(&json_path).map_err(|e| e.to_string())?;
        drop(engine);
        let bytes = std::fs::metadata(&json_path).map_err(|e| e.to_string())?.len();
        let t1 = Instant::now();
        let json_engine = SimilarityEngine::load(&json_path).map_err(|e| e.to_string())?;
        let ms = t1.elapsed().as_millis();
        drop(json_engine);
        (bytes, Some(ms))
    } else {
        drop(engine);
        (0, None)
    };

    eprintln!(
        "bench-scale: [{procs}] built in {build_ms}ms ({:.0} procs/s); sharded {}B across {} \
         shards{}",
        procs as f64 / (build_ms.max(1) as f64 / 1000.0),
        summary.total_bytes(),
        summary.shards,
        match json_load_ms {
            Some(ms) => format!("; json {json_bytes}B loads in {ms}ms"),
            None => "; json baseline skipped at this size".to_string(),
        },
    );

    let (mmap_load_ms, buffered_load_ms) = cold_load_ms(&eshx_path)?;
    eprintln!(
        "bench-scale: [{procs}] cold load: mmap {mmap_load_ms}ms, buffered {buffered_load_ms}ms"
    );

    let queries = query_battery();
    let open = |demand: bool| {
        esh_index::open_sharded_with(
            &eshx_path,
            EshxOpenOptions { mmap: opts.mmap, prune: true, demand },
        )
        .map_err(|e| e.to_string())
    };

    // Unbudgeted demand-decode pass: latency, whole-shard prunes, peak
    // residency, decoded-vs-mapped bytes. `shards_partial_min` is the
    // smallest count of partially-decoded resident shards observed
    // after any query — the gate that demand decoding actually leaves
    // neighbour records raw on every query, not just in aggregate.
    let lazy = open(true)?;
    let mut query_ms = Vec::with_capacity(queries.len());
    let mut baselines = Vec::with_capacity(queries.len());
    let mut shards_partial_min = u64::MAX;
    for q in &queries {
        let tq = Instant::now();
        let scores = lazy.query(q);
        query_ms.push(tq.elapsed().as_millis());
        assert_eq!(scores.scores.len(), procs);
        baselines.push(scores);
        shards_partial_min = shards_partial_min.min(lazy.shard_stats().shards_partial);
    }
    let stats = lazy.shard_stats();
    drop(lazy);
    eprintln!(
        "bench-scale: [{procs}] queries {query_ms:?}ms; shards loaded {}/{} (fanout {}, pruned \
         {}), peak resident {}B; decoded {}B of {}B mapped ({} classes, ≥{} shards partial)",
        stats.shards_loaded,
        stats.shards_total,
        stats.fanout_total,
        stats.pruned_total,
        stats.resident_bytes_peak,
        stats.decoded_bytes,
        stats.mapped_bytes,
        stats.classes_decoded_total,
        shards_partial_min,
    );

    // Whole-decode baseline: the same queries with demand decoding off
    // (every touched shard decodes all records at open — the v5
    // behavior). Rankings must not move by a bit; the latency and
    // residency deltas are what the demand-decode tier is gated on.
    let whole = open(false)?;
    let mut query_ms_whole = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let tq = Instant::now();
        let scores = whole.query(q);
        query_ms_whole.push(tq.elapsed().as_millis());
        assert_identical(&baselines[i], &scores, &format!("[{procs}] whole-decode query {i}"))?;
    }
    let wstats = whole.shard_stats();
    drop(whole);
    eprintln!(
        "bench-scale: [{procs}] whole-decode baseline {query_ms_whole:?}ms, peak resident {}B",
        wstats.resident_bytes_peak,
    );

    // Budgeted pass: one-shard budget, same queries. Evictions must
    // happen, settled residency must respect the budget, and the ranked
    // output must not move by a bit.
    let budget_bytes = esh_index::read_manifest(&eshx_path)
        .map_err(|e| e.to_string())?
        .largest_shard_bytes;
    let budgeted = open(true)?;
    budgeted.set_shard_budget(budget_bytes);
    for (i, q) in queries.iter().enumerate() {
        let scores = budgeted.query(q);
        assert_identical(&baselines[i], &scores, &format!("[{procs}] budgeted query {i}"))?;
    }
    let bstats = budgeted.shard_stats();
    drop(budgeted);
    eprintln!(
        "bench-scale: [{procs}] budget {budget_bytes}B: {} evictions, settled {}B, peak {}B",
        bstats.evicted_total, bstats.resident_bytes, bstats.resident_bytes_peak,
    );

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_dir_all(&eshx_path).ok();

    Ok(SizeRun {
        procs,
        build_ms,
        json_bytes,
        json_load_ms,
        sharded_bytes: summary.total_bytes(),
        mmap_load_ms,
        buffered_load_ms,
        query_ms,
        query_ms_whole,
        shards_total: stats.shards_total,
        shards_loaded: stats.shards_loaded,
        shards_pruned: stats.pruned_total,
        resident_bytes_peak: stats.resident_bytes_peak,
        resident_bytes_peak_whole: wstats.resident_bytes_peak,
        decoded_bytes: stats.decoded_bytes,
        mapped_bytes: stats.mapped_bytes,
        classes_decoded: stats.classes_decoded_total,
        shards_partial_min,
        budget_bytes,
        budget_resident_bytes: bstats.resident_bytes,
        budget_resident_peak: bstats.resident_bytes_peak,
        budget_evicted: bstats.evicted_total,
    })
}

/// Byte-identity on the cross-compiler matrix: a sharded engine's ranked
/// output must equal the JSON-loaded engine's, bit for bit, scores and
/// order alike. Returns `(corpus procs, queries checked)`.
fn check_identity(smoke: bool) -> Result<(usize, usize), String> {
    let corpus_config = if smoke { CorpusConfig::small() } else { CorpusConfig::default() };
    let corpus = Corpus::build(&corpus_config);
    eprintln!(
        "bench-scale: identity check on the {}-procedure compiler matrix...",
        corpus.procs.len()
    );
    let mut engine = SimilarityEngine::new(esh_core::EngineConfig::default());
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let json_path = dir.join("identity.esh");
    let eshx_path = dir.join("identity.eshx");
    engine.save(&json_path).map_err(|e| e.to_string())?;
    esh_index::write_sharded(&engine, &eshx_path, 32).map_err(|e| e.to_string())?;
    drop(engine);
    let from_json = SimilarityEngine::load(&json_path).map_err(|e| e.to_string())?;
    let from_shards = esh_index::open_sharded(&eshx_path).map_err(|e| e.to_string())?;

    let queries: Vec<usize> = corpus
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.cve.is_some())
        .map(|(i, _)| i)
        .step_by(7)
        .take(3)
        .collect();
    for &qi in &queries {
        let a = from_json.query(&corpus.procs[qi].proc_);
        let b = from_shards.query(&corpus.procs[qi].proc_);
        let ra = a.ranked();
        let rb = b.ranked();
        if ra.len() != rb.len() {
            return Err(format!("identity: ranked lengths differ on query {qi}"));
        }
        for (x, y) in ra.iter().zip(&rb) {
            if x.name != y.name
                || x.ges.to_bits() != y.ges.to_bits()
                || x.s_log.to_bits() != y.s_log.to_bits()
                || x.s_vcp.to_bits() != y.s_vcp.to_bits()
            {
                return Err(format!(
                    "identity: sharded ranking diverges on query {qi} at `{}` vs `{}`",
                    x.name, y.name
                ));
            }
        }
    }
    // The counter contract too: both engines saw the same queries, so
    // their hit/miss counters must agree exactly.
    let ca = from_json.cache_stats();
    let cb = from_shards.cache_stats();
    if (ca.hits, ca.misses) != (cb.hits, cb.misses) {
        return Err(format!(
            "identity: cache counters diverge — json {}h/{}m, sharded {}h/{}m",
            ca.hits, ca.misses, cb.hits, cb.misses
        ));
    }
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_dir_all(&eshx_path).ok();
    Ok((corpus.procs.len(), queries.len()))
}

/// All the pass/fail conditions over the measured runs, separated from
/// measurement so a failure still leaves every number printed above it.
fn apply_gates(runs: &[SizeRun], mmap: bool) -> Result<(), String> {
    for r in runs {
        if let Some(json_ms) = r.json_load_ms {
            if r.sharded_load_ms(mmap) >= json_ms {
                return Err(format!(
                    "cold-load gate failed at {} procs: sharded {}ms is not faster than json {}ms",
                    r.procs,
                    r.sharded_load_ms(mmap),
                    json_ms
                ));
            }
        }
        if r.mmap_load_ms > r.buffered_load_ms {
            return Err(format!(
                "mmap gate failed at {} procs: mmap cold-load {}ms lost to the buffered \
                 fallback's {}ms",
                r.procs, r.mmap_load_ms, r.buffered_load_ms
            ));
        }
        if r.shards_pruned < QUERIES_PER_SIZE as u64 {
            return Err(format!(
                "pruning gate failed at {} procs: {} whole-shard prunes over {} queries \
                 (need one per query)",
                r.procs, r.shards_pruned, QUERIES_PER_SIZE
            ));
        }
        if r.decoded_bytes >= r.mapped_bytes {
            return Err(format!(
                "demand-decode gate failed at {} procs: decoded {}B is not below mapped {}B \
                 (queries decoded every record they mapped)",
                r.procs, r.decoded_bytes, r.mapped_bytes
            ));
        }
        if r.shards_partial_min < 1 {
            return Err(format!(
                "partial-decode gate failed at {} procs: some query left no resident shard \
                 partially decoded",
                r.procs
            ));
        }
        // The headline demand-decode gates bind where whole-shard decode
        // actually hurts: at 100k-scale, shard decode dominates a cold
        // query. Below that, SAT work dominates and the ratio is noise.
        if r.procs >= 100_000 {
            let cold = r.query_ms[0].max(1);
            let cold_whole = r.query_ms_whole[0];
            if cold_whole < cold.saturating_mul(2) {
                return Err(format!(
                    "demand-decode speedup gate failed at {} procs: cold query {}ms vs \
                     whole-decode {}ms (need ≥2×)",
                    r.procs, r.query_ms[0], cold_whole
                ));
            }
            if r.resident_bytes_peak >= r.resident_bytes_peak_whole {
                return Err(format!(
                    "residency gate failed at {} procs: demand-decode peak {}B is not below \
                     whole-decode peak {}B",
                    r.procs, r.resident_bytes_peak, r.resident_bytes_peak_whole
                ));
            }
        }
        if r.budget_evicted == 0 {
            return Err(format!(
                "eviction gate failed at {} procs: a one-shard budget ({}B) never evicted",
                r.procs, r.budget_bytes
            ));
        }
        if r.budget_resident_bytes > r.budget_bytes {
            return Err(format!(
                "budget gate failed at {} procs: settled residency {}B exceeds the {}B budget",
                r.procs, r.budget_resident_bytes, r.budget_bytes
            ));
        }
    }
    Ok(())
}

/// Runs the scale bench and publishes `BENCH_scale.json`. `--smoke` keeps
/// the 1k size and the small identity matrix for CI. Returns an error
/// when any gate fails — cold-load, mmap-vs-buffered, whole-shard
/// pruning, eviction under budget, or ranked-output identity.
pub fn run(opts: &BenchScaleOptions) -> Result<(), String> {
    let t0 = Instant::now();
    let ladder: &[usize] = if opts.smoke { &[1000] } else { &[1000, 5000, 10_000, 100_000] };
    let sizes: Vec<usize> = match opts.max_procs {
        0 => ladder.to_vec(),
        cap => {
            let kept: Vec<usize> = ladder.iter().copied().filter(|&n| n <= cap).collect();
            // A cap below the smallest rung still runs that rung — an
            // empty bench would trivially "pass" every gate.
            if kept.is_empty() { vec![ladder[0]] } else { kept }
        }
    };
    let mut runs = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        runs.push(measure_size(n, opts)?);
    }
    let (identity_procs, identity_queries) = check_identity(opts.smoke)?;
    std::fs::remove_dir_all(scratch_dir()).ok();

    apply_gates(&runs, opts.mmap)?;

    let size_entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let q: Vec<String> = r.query_ms.iter().map(|m| m.to_string()).collect();
            let qw: Vec<String> = r.query_ms_whole.iter().map(|m| m.to_string()).collect();
            let cold_speedup = r.query_ms_whole.first().copied().unwrap_or(0) as f64
                / (*r.query_ms.first().unwrap_or(&1)).max(1) as f64;
            let json_side = match r.json_load_ms {
                Some(ms) => format!(
                    "\"json_bytes\": {}, \"json_load_ms\": {}, \"cold_load_speedup\": {:.2}",
                    r.json_bytes,
                    ms,
                    ms as f64 / r.sharded_load_ms(opts.mmap).max(1) as f64,
                ),
                None => "\"json_bytes\": null, \"json_load_ms\": null, \
                         \"cold_load_speedup\": null"
                    .to_string(),
            };
            format!(
                "    {{ \"procs\": {}, \"build_ms\": {}, \
                 \"build_throughput_procs_per_s\": {:.1}, {json_side}, \
                 \"sharded_bytes\": {}, \"mmap_load_ms\": {}, \"buffered_load_ms\": {}, \
                 \"query_ms\": [{}], \"query_ms_whole_decode\": [{}], \
                 \"cold_query_speedup\": {:.2}, \"shards_total\": {}, \
                 \"shards_loaded_after_queries\": {}, \
                 \"shards_pruned\": {}, \"resident_bytes_peak\": {}, \
                 \"resident_bytes_peak_whole_decode\": {}, \"decoded_bytes\": {}, \
                 \"mapped_bytes\": {}, \"classes_decoded\": {}, \"shards_partial_min\": {}, \
                 \"shard_budget_bytes\": {}, \"budget_resident_bytes\": {}, \
                 \"budget_resident_bytes_peak\": {}, \"shards_evicted\": {} }}",
                r.procs,
                r.build_ms,
                r.throughput(),
                r.sharded_bytes,
                r.mmap_load_ms,
                r.buffered_load_ms,
                q.join(", "),
                qw.join(", "),
                cold_speedup,
                r.shards_total,
                r.shards_loaded,
                r.shards_pruned,
                r.resident_bytes_peak,
                r.resident_bytes_peak_whole,
                r.decoded_bytes,
                r.mapped_bytes,
                r.classes_decoded,
                r.shards_partial_min,
                r.budget_bytes,
                r.budget_resident_bytes,
                r.budget_resident_peak,
                r.budget_evicted,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"mode\": \"{mode}\",\n  \"seed\": {SEED},\n  \
         \"matrix_configs\": {matrix},\n  \"targets_per_shard\": {TARGETS_PER_SHARD},\n  \
         \"profile\": \"lsh_only\",\n  \"mmap\": {mmap},\n  \
         \"sizes\": [\n{sizes}\n  ],\n  \
         \"identity\": {{ \"corpus_procs\": {ip}, \"queries\": {iq}, \"identical\": true }},\n  \
         \"elapsed_ms\": {elapsed}\n}}\n",
        mode = if opts.smoke { "smoke" } else { "full" },
        matrix = scale_matrix().len(),
        mmap = opts.mmap,
        sizes = size_entries.join(",\n"),
        ip = identity_procs,
        iq = identity_queries,
        elapsed = t0.elapsed().as_millis(),
    );
    esh_core::publish_bench_json("scale", &json, !opts.smoke)?;
    Ok(())
}
