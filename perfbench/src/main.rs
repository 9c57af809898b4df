//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_scale|serve_paper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input derives from `--seed`; the
//! measured phase lasts `--seconds`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run measures its phase twice, untraced then
//! traced on identical inputs (the warm pass of `cold_scale`, the whole
//! phase of `serve_paper`), and reports the difference as
//! `trace.overhead_share`; its spans go to `.bench_out/`. Scratch
//! indexes are built under `.bench_out/` and removed before exit. Any
//! failed output check makes `correct` false and the exit code 1.
//! `BENCHMARK.json` at the repository root documents every workload
//! and metric.

mod check;
mod layers;
mod rng;
mod scale;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use esh_core::{compute_sketch, PrefilterConfig, SimilarityEngine};
use esh_index::EshxOpenOptions;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("recall_at_10", "share"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.gen_ms", "ms"),
    ("engine.add_target_ms", "ms"),
    ("engine.classes", "count"),
    ("index.write_ms", "ms"),
    ("index.open_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("engine.query_ms", "ms"),
    ("strands.prepare_ms", "ms"),
    ("strands.per_query", "count"),
    ("prefilter.sketch_ms", "ms"),
    ("prefilter.pairs_pruned", "count"),
    ("prefilter.sketch_collisions", "count"),
    ("prefilter.exact_fallbacks", "count"),
    ("prefilter.ambiguous_probes", "count"),
    ("prefilter.probe_escalations", "count"),
    ("prefilter.refined_pairs", "count"),
    ("prefilter.prune_share", "share"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "share"),
    ("solver.sat_queries", "count"),
    ("solver.sat_ms", "ms"),
    ("solver.conflicts", "count"),
    ("solver.blast_hit_rate", "share"),
    ("solver.resets", "count"),
    ("solver.cpu_share", "share"),
    ("shard.fanout", "count"),
    ("shard.pruned", "count"),
    ("shard.classes_decoded", "count"),
    ("shard.decoded_bytes", "bytes"),
    ("shard.evicted", "count"),
    ("shard.resident_peak_bytes", "bytes"),
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_occupancy", "count"),
    ("serve.coalesced_share", "share"),
    ("serve.overloaded", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve_p50_ms.low", "ms"),
    ("serve_tail_ms.low", "ms"),
    ("serve_p50_ms.mid", "ms"),
    ("serve_tail_ms.mid", "ms"),
    ("max_rate_rps", "1/s"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.repeat_share", "share"),
    ("failed_share", "share"),
    ("query.samples", "count"),
    ("query_tail.pct", "%"),
    ("trace.overhead_share", "share"),
    ("peak_rss_mb", "MB"),
    ("warm.queries_per_s", "1/s"),
    ("warm.query_p50_ms", "ms"),
    ("warm.cache_misses", "count"),
    ("warm.sat_queries", "count"),
    ("warm.classes_decoded", "count"),
];

/// Parsed command line and the run's environment.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Engine worker threads and the load generator's thread budget.
    pub threads: usize,
    /// Results and spans land here.
    pub out_dir: PathBuf,
    /// Per-process scratch directory for indexes; removed on drop.
    pub scratch: PathBuf,
}

impl Ctx {
    /// The measured phase's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the workload measured, end-to-end and per-layer.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced phase's spans (traced runs only).
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records one check result, logging a failure.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {what}: {e}");
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Opens a sharded index the way the scale tier serves it: mmap-backed,
/// with band-summary pruning and per-record demand decoding.
pub fn open_index(path: &Path, threads: usize) -> Result<SimilarityEngine, String> {
    let mut engine = esh_index::open_sharded_with(
        path,
        EshxOpenOptions {
            mmap: true,
            prune: true,
            demand: true,
        },
    )
    .map_err(|e| format!("opening {}: {e}", path.display()))?;
    engine.set_threads(threads);
    Ok(engine)
}

/// One set-up repetition's layer timings.
#[derive(Clone, Copy)]
pub struct SetupRep {
    pub total_s: f64,
    pub gen_ms: f64,
    pub add_ms: f64,
    pub write_ms: f64,
    pub open_ms: f64,
    pub classes: f64,
}

impl SetupRep {
    /// Finishes a repetition that started at `t0` and has built
    /// `engine`: writes it as a sharded index at `path`, drops it, and
    /// opens the index lazily.
    pub fn write_and_open(
        engine: SimilarityEngine,
        path: &Path,
        targets_per_shard: usize,
        threads: usize,
        t0: Instant,
        gen_ms: f64,
        add_ms: f64,
    ) -> Result<(SimilarityEngine, SetupRep), String> {
        let classes = engine.class_count() as f64;
        let tw = Instant::now();
        esh_index::write_sharded(&engine, path, targets_per_shard)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        drop(engine);
        let write_ms = tw.elapsed().as_secs_f64() * 1e3;
        let to = Instant::now();
        let opened = open_index(path, threads)?;
        let open_ms = to.elapsed().as_secs_f64() * 1e3;
        let total_s = t0.elapsed().as_secs_f64();
        Ok((
            opened,
            SetupRep {
                total_s,
                gen_ms,
                add_ms,
                write_ms,
                open_ms,
                classes,
            },
        ))
    }

    /// Reports the median over `reps` of every layer's set-up figure.
    pub fn report(reps: &[SetupRep], out: &mut Outcome) {
        let med = |f: fn(&SetupRep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
        out.set("setup_s", med(|r| r.total_s));
        out.set("corpus.gen_ms", med(|r| r.gen_ms));
        out.set("engine.add_target_ms", med(|r| r.add_ms));
        out.set("engine.classes", med(|r| r.classes));
        out.set("index.write_ms", med(|r| r.write_ms));
        out.set("index.open_ms", med(|r| r.open_ms));
        eprintln!(
            "perfbench: {} strand classes, set-up {:.3}s (median of {})",
            med(|r| r.classes),
            med(|r| r.total_s),
            reps.len()
        );
    }
}

/// When the benchmark's own strand preparation and sketch pricing of
/// one query procedure started and finished, so the two layers can be
/// timed from outside the engine.
pub struct StrandTiming {
    pub start: Instant,
    pub prepared: Instant,
    pub sketched: Instant,
    pub strands: usize,
}

/// Runs `extract_proc_strands` + `lift_strand`, then `compute_sketch`
/// on every lifted strand under the engine's active sketch profile.
pub fn time_strand_layers(
    proc_: &esh_asm::Procedure,
    sketch: Option<&PrefilterConfig>,
) -> StrandTiming {
    let start = Instant::now();
    let strands = esh_strands::extract_proc_strands(proc_);
    let lifted: Vec<esh_ivl::Proc> = strands.iter().map(esh_strands::lift_strand).collect();
    let prepared = Instant::now();
    if let Some(cfg) = sketch {
        for l in &lifted {
            std::hint::black_box(compute_sketch(l, cfg));
        }
    }
    StrandTiming {
        start,
        prepared,
        sketched: Instant::now(),
        strands: strands.len(),
    }
}

/// Returns heap pages freed during set-up to the kernel, then resets
/// the resident-set high-water mark, so the next [`peak_rss_mb`] covers
/// only what follows. `false` when the kernel refuses the reset, in
/// which case the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    release_freed_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only hands
    // free heap pages back to the kernel; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with every digit Rust prints for the f64.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        out_dir,
        scratch,
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = match ctx.workload.as_str() {
        "cold_scale" => scale::cold(ctx)?,
        "serve_paper" => serve::paper(ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let failed_share = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.set("failed_share", failed_share);
    Ok(outcome)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {} threads",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace, ctx.threads
    );
    let outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let Some(v) = outcome.metrics.get(name).filter(|v| v.is_finite()) else {
            eprintln!(
                "perfbench: workload {} did not measure `{name}`",
                ctx.workload
            );
            return ExitCode::FAILURE;
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        ));
    }
    if let Some(tracer) = &outcome.tracer {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue above and `BENCHMARK.json` must name the
    /// same metrics with the same units, in the same order.
    use serde::Value;

    fn doc(path: &str) -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn field(v: &Value, key: &str) -> Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }

    fn text_of(v: Value) -> String {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = doc("../BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = field(&doc, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (text_of(field(m, "name")), text_of(field(m, "unit"))))
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    /// `spec.json` documents the same workloads as `BENCHMARK.json` and
    /// records the latency limit the code applies.
    #[test]
    fn spec_matches_code() {
        let bench = doc("../BENCHMARK.json");
        let spec = doc("spec.json");
        let listed: Vec<String> = field(&bench, "workloads")
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| text_of(field(w, "name")))
            .collect();
        let workloads = field(&spec, "workloads");
        let documented: Vec<String> = workloads
            .as_object()
            .expect("workloads")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(listed, documented);
        let limit = match field(&field(&workloads, "serve_paper"), "latency_limit_ms") {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
            other => panic!("latency_limit_ms is {}", other.kind()),
        };
        assert_eq!(limit, serve::LATENCY_LIMIT_MS);
    }
}
