//! `cold_scale`: one offline caller, closed loop, over a lazily opened
//! sharded `.eshx` of 10k scale-corpus procedures under the scale
//! profile (`PrefilterConfig::lsh_only`). A traced run adds a warm pass
//! over the same battery on one engine (see [`warm_pass`]).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use esh_asm::Procedure;
use esh_cc::Compiler;
use esh_core::{EngineConfig, PrefilterConfig, QueryScores, SimilarityEngine};
use esh_corpus::scale::{scale_matrix, stream_scale_corpus_with_threads, ScaleConfig};

use crate::layers::Counters;
use crate::rng::Rng;
use crate::stats::{mean, median, ratio, summarize};
use crate::trace::Tracer;
use crate::{check, open_index, Ctx, Outcome, SetupRep};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Scale-corpus procedures in the index.
pub const PROCS: usize = 10_000;
/// Generation seed of the indexed corpus: the scale corpus `esh
/// bench-scale` indexes (14,413 strand classes at 10k procedures).
const CORPUS_SEED: u64 = 0x5CA1E;
/// Targets per shard, as `esh bench-scale` writes its scale indexes.
const TARGETS_PER_SHARD: usize = 8;
/// Draws the battery's members. Cold query cost is heavy-tailed (a few
/// queries need seconds of SAT work), so which queries a run draws
/// would dominate the run-to-run spread: members stay fixed, and
/// `--seed` orders every round.
const BATTERY_SEED: u64 = 0xE5B;
/// Distinct queries in the battery. The tail is read at rank N - 10, so
/// with every query distinct its neighbours are other queries; with 24
/// queries run twice it was one heavy query's slower run, and followed
/// that query's solver work from run to run.
const BATTERY: usize = 48;
/// Rounds `cold_scale` measures, whatever `--seconds` says: about 25 s
/// of engine time on a busy two-core host. A time bound would flip the
/// round count on a slower host, and the rank the tail is read at would
/// flip with it.
const COLD_ROUNDS: usize = 1;
/// Every `ABSENT_EVERY`-th query is compiled from a source the corpus
/// does not hold; the rest are corpus members.
const ABSENT_EVERY: usize = 4;

/// Sources past the corpus's own that absent-source queries draw from.
const ABSENT_SOURCES: u64 = 10_000;

/// One battery query.
struct Query {
    proc_: Procedure,
    /// The query's own target id when it is a corpus member.
    self_id: Option<usize>,
    /// Source function, the ground truth for `recall_at_10`.
    func: String,
}

enum Slot {
    Present(usize),
    Absent { source: u64, toolchain: usize },
}

/// The battery's members: distinct sources, each at a drawn toolchain.
fn plan() -> Vec<Slot> {
    let mut rng = Rng::derive(BATTERY_SEED, "scale-battery");
    let matrix = scale_matrix().len();
    let config = ScaleConfig::new(PROCS, CORPUS_SEED);
    // Only sources compiled across the whole matrix: their queries have
    // every cross-toolchain sibling in the corpus.
    let mut sources: Vec<usize> = (0..PROCS / matrix).collect();
    rng.shuffle(&mut sources);
    let mut present = sources.into_iter();
    let mut absent: Vec<u64> = (0..ABSENT_SOURCES)
        .map(|k| config.source_count() as u64 + k)
        .collect();
    rng.shuffle(&mut absent);
    let mut absent = absent.into_iter();
    (0..BATTERY)
        .map_while(|i| {
            if i % ABSENT_EVERY == ABSENT_EVERY - 1 {
                Some(Slot::Absent {
                    source: absent.next()?,
                    toolchain: rng.below(matrix),
                })
            } else {
                Some(Slot::Present(present.next()? * matrix + rng.below(matrix)))
            }
        })
        .collect()
}

/// The opened index plus what the benchmark keeps about its targets.
struct ScaleIndex {
    engine: SimilarityEngine,
    path: PathBuf,
    /// Source function of every target, by target id.
    funcs: Vec<String>,
}

/// Streams the corpus into a scale-profile engine, writes the sharded
/// index and opens it lazily. Returns the procedures at `keep`.
fn build_index(
    ctx: &Ctx,
    keep: &BTreeSet<usize>,
    path: PathBuf,
) -> Result<(ScaleIndex, BTreeMap<usize, Procedure>, SetupRep), String> {
    let t0 = Instant::now();
    let mut engine = SimilarityEngine::new(EngineConfig {
        sketch: Some(PrefilterConfig::lsh_only()),
        threads: ctx.threads,
        ..EngineConfig::default()
    });
    let mut funcs = Vec::with_capacity(PROCS);
    let mut kept = BTreeMap::new();
    let mut add_ms = 0.0;
    let emitted =
        stream_scale_corpus_with_threads(&ScaleConfig::new(PROCS, CORPUS_SEED), ctx.threads, |p| {
            if keep.contains(&funcs.len()) {
                kept.insert(funcs.len(), p.proc_.clone());
            }
            funcs.push(p.func.clone());
            let ta = Instant::now();
            engine.add_target(p.display(), &p.proc_);
            add_ms += ta.elapsed().as_secs_f64() * 1e3;
        });
    if emitted != PROCS {
        return Err(format!(
            "scale corpus emitted {emitted} of {PROCS} procedures"
        ));
    }
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3 - add_ms;
    let (engine, rep) = SetupRep::write_and_open(
        engine,
        &path,
        TARGETS_PER_SHARD,
        ctx.threads,
        t0,
        gen_ms,
        add_ms,
    )?;
    Ok((
        ScaleIndex {
            engine,
            path,
            funcs,
        },
        kept,
        rep,
    ))
}

/// Sets the index up [`SETUP_REPS`] times (the previous repetition's
/// engine dropped first), keeps the last one, and reports the median of
/// each layer's time.
fn set_up(ctx: &Ctx, out: &mut Outcome) -> Result<(ScaleIndex, Vec<Query>), String> {
    let slots = plan();
    let keep: BTreeSet<usize> = slots
        .iter()
        .filter_map(|s| match s {
            Slot::Present(i) => Some(*i),
            Slot::Absent { .. } => None,
        })
        .collect();
    let mut reps = Vec::new();
    let mut last = None;
    for r in 0..SETUP_REPS {
        drop(last.take());
        let (index, kept, rep) =
            build_index(ctx, &keep, ctx.scratch.join(format!("scale-{r}.eshx")))?;
        reps.push(rep);
        last = Some((index, kept));
    }
    SetupRep::report(&reps, out);
    let (index, mut kept) = last.expect("at least one set-up repetition");

    let matrix = scale_matrix();
    let queries = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Present(i) => Query {
                proc_: kept.remove(&i).expect("kept while streaming"),
                self_id: Some(i),
                func: index.funcs[i].clone(),
            },
            Slot::Absent { source, toolchain } => {
                let f = esh_minic::gen::generate_scale_source(CORPUS_SEED, source);
                let tc = matrix[toolchain];
                let proc_ = Compiler::with_opt(tc.vendor, tc.version, tc.opt).compile_function(&f);
                Query {
                    proc_,
                    self_id: None,
                    func: f.name,
                }
            }
        })
        .collect();
    Ok((index, queries))
}

/// Same-source share of the top 10, the query itself excluded.
fn recall_at_10(scores: &QueryScores, q: &Query, funcs: &[String]) -> f64 {
    let same = scores
        .ranked()
        .iter()
        .filter(|s| Some(s.target.0) != q.self_id)
        .take(10)
        .filter(|s| funcs[s.target.0] == q.func)
        .count();
    same as f64 / 10.0
}

/// One measured phase's raw results.
struct Phase {
    /// Every query's engine time, in issue order.
    latencies_ms: Vec<f64>,
    /// Engine time of each complete round (one pass over the battery).
    rounds_ms: Vec<f64>,
    recalls: Vec<f64>,
    /// Peak resident set of each round, MiB.
    rounds_rss_mb: Vec<f64>,
    counters: Counters,
}

/// How a phase treats the engine between queries.
#[derive(Clone, Copy)]
enum Rounds<'a> {
    /// `cold_scale`: every query opens the index afresh, as one `esh
    /// query --index` invocation does, so it meets a cold VCP cache,
    /// fresh solver sessions and undecoded shards — and its cost cannot
    /// depend on which queries ran before it.
    Cold,
    /// The warm pass: every round reuses the warm engine until the
    /// queries have taken `budget_ms` of engine time, and each result
    /// must match its warm-up reference bit for bit.
    Warm {
        engine: &'a SimilarityEngine,
        refs: &'a [QueryScores],
        budget_ms: f64,
    },
}

impl Rounds<'_> {
    /// Name of each query's root span.
    fn root_span(&self) -> &'static str {
        match self {
            Rounds::Cold => "query",
            Rounds::Warm { .. } => "warm.query",
        }
    }
}

/// Closed loop, one caller: runs the whole battery in a seeded order,
/// round after round — [`COLD_ROUNDS`] rounds cold, or warm until the
/// queries have taken the budget's engine time, the round under way then
/// completing — so every round covers the same queries. (Index opens and
/// output checks between queries are not measured.)
fn run_phase(
    ctx: &Ctx,
    index: &ScaleIndex,
    queries: &[Query],
    mode: Rounds<'_>,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut order_rng = Rng::derive(ctx.seed, "scale-order");
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        rounds_ms: Vec::new(),
        recalls: Vec::new(),
        rounds_rss_mb: Vec::new(),
        counters: Counters::default(),
    };
    loop {
        crate::reset_peak_rss();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order_rng.shuffle(&mut order);
        let mut round_ms = 0.0;
        for j in order {
            let fresh;
            let (engine, refs) = match mode {
                Rounds::Cold => {
                    fresh = open_index(&index.path, ctx.threads)?;
                    (&fresh, None)
                }
                Rounds::Warm { engine, refs, .. } => (engine, Some(refs)),
            };
            let sketch = engine.config().active_sketch().cloned();
            let before = Counters::read(engine);
            let q = &queries[j];
            let spans = tracer.as_ref().map(|_| {
                (
                    crate::time_strand_layers(&q.proc_, sketch.as_ref()),
                    Counters::read(engine),
                )
            });
            let tq = Instant::now();
            let scores = engine.query(&q.proc_);
            let done = Instant::now();
            let ms = (done - tq).as_secs_f64() * 1e3;
            round_ms += ms;
            phase.latencies_ms.push(ms);
            if let (Some(tr), Some((st, c0))) = (tracer.as_deref_mut(), spans) {
                let delta = Counters::read(engine).since(&c0);
                let root = tr.record(
                    None,
                    mode.root_span(),
                    st.start,
                    done,
                    vec![("battery_index", j as f64)],
                );
                tr.record(
                    Some(root),
                    "strands.prepare",
                    st.start,
                    st.prepared,
                    vec![("strands", st.strands as f64)],
                );
                tr.record(
                    Some(root),
                    "prefilter.sketch",
                    st.prepared,
                    st.sketched,
                    vec![],
                );
                tr.record(Some(root), "engine.query", tq, done, delta.attrs());
            }
            let result = match refs {
                Some(r) => check::identical_scores(&r[j], &scores),
                None => check::finite_for_every_target(&scores, index.funcs.len()),
            };
            out.check(&format!("battery query {j}"), result);
            if q.self_id.is_some() {
                phase.recalls.push(recall_at_10(&scores, q, &index.funcs));
            }
            phase.counters = phase.counters.plus(&Counters::read(engine).since(&before));
        }
        phase.rounds_ms.push(round_ms);
        phase.rounds_rss_mb.push(crate::peak_rss_mb());
        let done = match mode {
            Rounds::Cold => phase.rounds_ms.len() == COLD_ROUNDS,
            Rounds::Warm { budget_ms, .. } => phase.rounds_ms.iter().sum::<f64>() >= budget_ms,
        };
        if done {
            break;
        }
    }
    Ok(phase)
}

/// The end-to-end metrics of a cold phase.
fn report_end_to_end(phase: &Phase, battery: usize, out: &mut Outcome) {
    let sum = summarize(&phase.latencies_ms).expect("at least one query completes");
    out.set("peak_rss_mb", median(&phase.rounds_rss_mb));
    out.set("queries_per_s", throughput(phase, battery));
    out.set("query_p50_ms", sum.p50);
    out.set("query_tail_ms", sum.tail);
    out.set("recall_at_10", mean(&phase.recalls));
    out.set("query.samples", sum.n as f64);
    out.set("query_tail.pct", sum.tail_pct);
    eprintln!(
        "perfbench: {} queries in rounds of {:.0?}ms; p50 {:.2}ms, p{:.1} {:.2}ms; recall@10 {:.4}; peak RSS {:.1}MB",
        sum.n,
        phase.rounds_ms,
        sum.p50,
        sum.tail_pct,
        sum.tail,
        mean(&phase.recalls),
        median(&phase.rounds_rss_mb)
    );
}

/// Median over rounds of battery size / round engine time.
fn throughput(phase: &Phase, battery: usize) -> f64 {
    median(
        &phase
            .rounds_ms
            .iter()
            .map(|ms| battery as f64 * 1e3 / ms)
            .collect::<Vec<_>>(),
    )
}

/// Per-layer metrics of the traced cold phase.
fn report_layers(ctx: &Ctx, traced: &Phase, tracer: &Tracer, out: &mut Outcome) {
    let ms = |name: &str| tracer.named(name).map(|s| s.ms()).collect::<Vec<_>>();
    let engine_ms = ms("engine.query");
    out.set("engine.query_ms", median(&engine_ms));
    out.set("strands.prepare_ms", median(&ms("strands.prepare")));
    out.set("prefilter.sketch_ms", median(&ms("prefilter.sketch")));
    out.set(
        "strands.per_query",
        mean(
            &tracer
                .named("strands.prepare")
                .map(|s| s.attr("strands"))
                .collect::<Vec<_>>(),
        ),
    );
    traced
        .counters
        .report(&mut out.metrics, engine_ms.iter().sum(), ctx.threads);
    for name in [
        "serve.queue_ms",
        "serve.exec_ms",
        "serve.wire_ms",
        "serve.batches",
        "serve.batch_occupancy",
        "serve.coalesced_share",
        "serve.overloaded",
        "serve.deadline_exceeded",
        "serve_p50_ms.low",
        "serve_tail_ms.low",
        "serve_p50_ms.mid",
        "serve_tail_ms.mid",
        "max_rate_rps",
        "loadgen.late_ms_max",
    ] {
        // No daemon and no schedule on this workload: nothing to time.
        out.set(name, 0.0);
    }
    // Within a round every query is distinct, and each query's engine
    // has seen none of them.
    out.set("loadgen.repeat_share", 0.0);
}

/// The traced run's warm pass, the path the engine takes once its VCP
/// cache holds every pair: no SAT calls, cache misses or shard decodes,
/// so the time goes to pricing, the dense VCP matrix and scoring over
/// 14k classes. Set-up's engine answers the battery once (filling the
/// cache and recording reference results), then repeats it for half of
/// `--seconds` of engine time: a quarter untraced and a quarter traced,
/// whose round times give `trace.overhead_share`. Every warm result must
/// match its reference bit for bit, and the pass must miss the cache,
/// call the solver and decode a class zero times.
fn warm_pass(
    ctx: &Ctx,
    index: &ScaleIndex,
    queries: &[Query],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let tw = Instant::now();
    let refs: Vec<QueryScores> = queries
        .iter()
        .map(|q| index.engine.query(&q.proc_))
        .collect();
    out.set("setup.warmup_ms", tw.elapsed().as_secs_f64() * 1e3);
    for (i, r) in refs.iter().enumerate() {
        out.check(
            &format!("warm-up query {i}"),
            check::finite_for_every_target(r, index.funcs.len()),
        );
    }
    let warm = Rounds::Warm {
        engine: &index.engine,
        refs: &refs,
        budget_ms: ctx.duration().as_secs_f64() * 1e3 / 4.0,
    };
    let untraced = run_phase(ctx, index, queries, warm, None, out)?;
    let traced = run_phase(ctx, index, queries, warm, Some(tracer), out)?;
    let counters = untraced.counters.plus(&traced.counters);
    for (what, count) in [
        ("VCP cache misses", counters.cache_misses),
        ("SAT calls", counters.sat_queries),
        ("shard classes decoded", counters.classes_decoded),
    ] {
        out.check(
            &format!("warm rounds made no {what}"),
            match count {
                0.0 => Ok(()),
                n => Err(format!("{n} {what}")),
            },
        );
    }
    let sum = summarize(&untraced.latencies_ms).expect("at least one query completes");
    out.set("warm.queries_per_s", throughput(&untraced, queries.len()));
    out.set("warm.query_p50_ms", sum.p50);
    out.set("warm.cache_misses", counters.cache_misses);
    out.set("warm.sat_queries", counters.sat_queries);
    out.set("warm.classes_decoded", counters.classes_decoded);
    out.set(
        "trace.overhead_share",
        ratio(median(&traced.rounds_ms), median(&untraced.rounds_ms)) - 1.0,
    );
    eprintln!(
        "perfbench: warm pass: rounds of {:.0?}ms untraced, {:.0?}ms traced; p50 {:.2}ms",
        untraced.rounds_ms, traced.rounds_ms, sum.p50
    );
    Ok(())
}

/// `cold_scale`: each round issues every battery query once, each
/// against a freshly opened index. A traced run measures the cold rounds
/// traced, then runs the [`warm_pass`].
pub fn cold(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (index, queries) = set_up(ctx, &mut out)?;
    if !ctx.trace {
        let phase = run_phase(ctx, &index, &queries, Rounds::Cold, None, &mut out)?;
        report_end_to_end(&phase, queries.len(), &mut out);
        return Ok(out);
    }
    let mut tracer = Tracer::new();
    let traced = run_phase(
        ctx,
        &index,
        &queries,
        Rounds::Cold,
        Some(&mut tracer),
        &mut out,
    )?;
    report_end_to_end(&traced, queries.len(), &mut out);
    report_layers(ctx, &traced, &tracer, &mut out);
    warm_pass(ctx, &index, &queries, &mut tracer, &mut out)?;
    out.tracer = Some(tracer);
    Ok(out)
}
