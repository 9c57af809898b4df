//! `serve_paper`: the query daemon (`esh_serve::Server`) over a sharded
//! `.eshx` of the paper corpus, built with the default staged profile and
//! served under a 1 MiB shard budget, loaded over loopback from this
//! process.
//!
//! The measured phase has four parts: three open-loop steps at fixed,
//! evenly spaced arrival rates (low, mid, high; see [`STEPS`]), then a
//! closed loop in which every connection keeps [`WINDOW`] requests in
//! flight.
//! Each open-loop request is timed from its scheduled send, so a stall
//! charges every request queued behind it; the generator's own lateness
//! is reported and a step it fell behind on is invalid.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::{Corpus, CorpusConfig};
use esh_serve::{
    decode_line, encode_line, ranked_matches, Outcome as WireOutcome, PipelinedClient,
    QueryRequest, QueryResponse, RankedMatch, ServeConfig, Server,
};

use crate::layers::Counters;
use crate::rng::{Deck, Rng, Zipf};
use crate::stats::{mean, median, ratio, summarize, Summary};
use crate::trace::Tracer;
use crate::{check, Ctx, Outcome, SetupRep};

/// Index set-up repetitions per run; `setup_s` counts their median. One
/// takes about a fifth of a second, so one hiccup of the host moves it by
/// half; the median of nine does not follow a few.
const SETUP_REPS: usize = 9;
/// Targets per shard: 47 shards over the 371-procedure corpus.
const TARGETS_PER_SHARD: usize = 8;
/// Resident shard budget. The pool's decoded working set is larger, so
/// the daemon evicts and re-decodes while it serves.
const SHARD_BUDGET_MB: u64 = 1;
/// Corpus procedures the requests are drawn from.
const POOL: usize = 16;
/// Draws the pool and its popularity order. Served cost differs a lot
/// between procedures and the most popular few dominate the latency
/// figures, so the pool stays fixed; `--seed` orders every Zipf deck.
const POOL_SEED: u64 = 0xE5E5;
/// Zipf exponent of the pool's popularity.
const ZIPF_S: f64 = 1.0;
/// Requests per Zipf deck (see [`Deck`]). The low step sends whole
/// decks, so its mix of pool members is the same at every seed.
const DECK: usize = 32;
/// Matches per response.
const TOP_N: usize = 10;
/// Open-loop steps: label, arrival rate (requests per second) and share
/// of the measured phase; the closed loop gets what remains. The rates
/// sit under the daemon's closed-loop capacity on an idle two-core host
/// (about 60/s).
pub const STEPS: [(&str, f64, f64); 3] =
    [("low", 8.0, 0.3), ("mid", 15.0, 0.1), ("high", 30.0, 0.05)];
/// A rate step meets the latency limit when its tail is at or below
/// this and its backlog does not grow.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// A step whose generator sent any request later than this after its
/// scheduled time is invalid: the schedule was not kept.
const MAX_LATE_MS: f64 = 50.0;
/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 4;
/// Client-side socket timeout; the daemon enforces the real deadline.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One pool member: the request's query string and its offline answer.
struct Member {
    name: String,
    /// Corpus index the daemon resolves `name` to.
    qi: usize,
    reference: Vec<RankedMatch>,
    /// Same-source share of `reference` (the query itself is never in it).
    recall: f64,
}

/// One answered request.
struct Sample {
    member: usize,
    /// Client latency from the scheduled send (open loop) or the actual
    /// send (closed loop), ms.
    latency_ms: f64,
    /// Send time minus scheduled time, ms.
    late_ms: f64,
    /// Send to receive, ms.
    round_trip_ms: f64,
    response: QueryResponse,
    /// Scheduled send and receive, for spans.
    due: Instant,
    received: Instant,
}

/// One open-loop rate step.
struct Step {
    label: &'static str,
    rate: f64,
    samples: Vec<Sample>,
    late_ms_max: f64,
    /// Median latency of the step's last quarter stayed within the
    /// limit: the backlog did not grow.
    backlog_ok: bool,
}

impl Step {
    fn summary(&self) -> Option<Summary> {
        summarize(
            &self
                .samples
                .iter()
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    }

    fn valid(&self) -> bool {
        self.late_ms_max <= MAX_LATE_MS
    }

    fn meets_limit(&self) -> bool {
        self.valid()
            && self.backlog_ok
            && self
                .samples
                .iter()
                .all(|s| s.response.outcome == WireOutcome::Ok)
            && self.summary().is_some_and(|s| s.tail <= LATENCY_LIMIT_MS)
    }
}

/// Everything one measured pass produced.
struct Pass {
    steps: Vec<Step>,
    closed: Vec<Sample>,
    /// Ok responses per second of the closed-loop part.
    closed_rate: f64,
    counters: Counters,
    batches: f64,
    batched: f64,
    coalesced: f64,
    overloaded: f64,
    deadline_exceeded: f64,
    parts: Vec<Part>,
}

/// One of a pass's four parts, as the daemon's counters saw it.
struct Part {
    label: &'static str,
    start: Instant,
    end: Instant,
    /// Peak resident set, MiB.
    rss_mb: f64,
    counters: Counters,
}

/// Runs one part, reading the daemon's counters and the resident set
/// across it.
fn part<T>(
    server: &Server,
    label: &'static str,
    parts: &mut Vec<Part>,
    run: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    crate::reset_peak_rss();
    let before = Counters::from_metrics(&server.metrics())?;
    let start = Instant::now();
    let result = run()?;
    let end = Instant::now();
    let rss_mb = crate::peak_rss_mb();
    let counters = Counters::from_metrics(&server.metrics())?.since(&before);
    parts.push(Part {
        label,
        start,
        end,
        rss_mb,
        counters,
    });
    Ok(result)
}

/// Builds the staged-profile engine over the paper corpus, writes the
/// sharded index and opens it lazily, [`SETUP_REPS`] times; keeps the
/// last.
fn set_up(ctx: &Ctx, out: &mut Outcome) -> Result<(SimilarityEngine, Corpus), String> {
    let mut reps = Vec::new();
    let mut last = None;
    for r in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let corpus = Corpus::build_with_threads(&CorpusConfig::default(), ctx.threads);
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ta = Instant::now();
        let mut engine = SimilarityEngine::new(EngineConfig {
            threads: ctx.threads,
            ..EngineConfig::default()
        });
        for p in &corpus.procs {
            engine.add_target(p.display(), &p.proc_);
        }
        let add_ms = ta.elapsed().as_secs_f64() * 1e3;
        let path = ctx.scratch.join(format!("paper-{r}.eshx"));
        let (engine, rep) = SetupRep::write_and_open(
            engine,
            &path,
            TARGETS_PER_SHARD,
            ctx.threads,
            t0,
            gen_ms,
            add_ms,
        )?;
        reps.push(rep);
        last = Some((engine, corpus));
    }
    SetupRep::report(&reps, out);
    Ok(last.expect("at least one set-up repetition"))
}

/// Draws the fixed pool, queries each member offline on the engine the
/// daemon will serve (warming its cache), and records the references.
fn warm_pool(engine: &SimilarityEngine, corpus: &Corpus, out: &mut Outcome) -> Vec<Member> {
    let mut order: Vec<usize> = (0..corpus.procs.len()).collect();
    Rng::derive(POOL_SEED, "serve-pool").shuffle(&mut order);
    let names: Vec<String> = corpus.procs.iter().map(|p| p.display()).collect();
    let func_of: HashMap<&str, &str> = names
        .iter()
        .map(String::as_str)
        .zip(corpus.procs.iter().map(|p| p.func.as_str()))
        .collect();
    let tw = Instant::now();
    let pool = order[..POOL]
        .iter()
        .map(|&i| {
            // The daemon resolves a query string to the first corpus
            // procedure whose display name contains it.
            let qi = names
                .iter()
                .position(|n| n.contains(&names[i]))
                .expect("a name contains itself");
            let scores = engine.query(&corpus.procs[qi].proc_);
            let reference = ranked_matches(&scores, Some(TargetId(qi)), TOP_N);
            let own = corpus.procs[qi].func.as_str();
            let same = reference
                .iter()
                .filter(|m| func_of.get(m.name.as_str()) == Some(&own))
                .count();
            Member {
                name: names[i].clone(),
                qi,
                reference,
                recall: same as f64 / TOP_N as f64,
            }
        })
        .collect();
    out.set("setup.warmup_ms", tw.elapsed().as_secs_f64() * 1e3);
    pool
}

fn request(member: &Member) -> QueryRequest {
    QueryRequest {
        top_n: Some(TOP_N as u64),
        ..QueryRequest::new(member.name.clone())
    }
}

/// One open-loop step of `count` requests on `conns` fresh connections: the main thread
/// sends on schedule, one receiver thread per connection reads the
/// in-order responses.
fn open_loop(
    addr: &str,
    pool: &[Member],
    (label, rate): (&'static str, f64),
    count: usize,
    conns: usize,
    deck: &mut Deck,
) -> Result<Step, String> {
    let picks: Vec<usize> = (0..count).map(|_| deck.draw()).collect();
    let mut results = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut writers = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
            // Each request is one small write; without this the
            // generator's own Nagle delay would hold requests back.
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(CLIENT_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
            writers.push((stream, tx));
            handles.push(scope.spawn(move || receive(reader, rx)));
        }
        let start = Instant::now() + Duration::from_millis(5);
        let sent = picks.iter().enumerate().try_for_each(|(i, &member)| {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (stream, tx) = &mut writers[i % conns];
            let sent = Instant::now();
            stream
                .write_all(encode_line(&request(&pool[member])).as_bytes())
                .map_err(|e| format!("sending: {e}"))?;
            tx.send((member, due, sent))
                .map_err(|_| "a receiver exited early".to_string())
        });
        // Closing the channels tells each receiver how many responses to
        // expect, also when sending failed part-way.
        drop(writers);
        let mut error = sent.err();
        for h in handles {
            match h.join() {
                Ok(Ok(samples)) => results.extend(samples),
                Ok(Err(e)) => error = Some(e),
                Err(_) => error = Some("a receiver panicked".to_string()),
            }
        }
        error.map_or(Ok(()), Err)
    })?;
    results.sort_by_key(|s: &Sample| s.due);
    let late_ms_max = results.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    let tail_quarter: Vec<f64> = results[results.len() * 3 / 4..]
        .iter()
        .map(|s| s.latency_ms)
        .collect();
    let backlog_ok = tail_quarter.is_empty() || median(&tail_quarter) <= LATENCY_LIMIT_MS;
    Ok(Step {
        label,
        rate,
        samples: results,
        late_ms_max,
        backlog_ok,
    })
}

/// Reads one response per request announced on `rx`, in order.
fn receive(
    mut reader: BufReader<TcpStream>,
    rx: mpsc::Receiver<(usize, Instant, Instant)>,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    let mut line = String::new();
    for (member, due, sent) in rx {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("receiving: {e}"))?;
        let received = Instant::now();
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let response: QueryResponse =
            decode_line(&line).map_err(|e| format!("bad response: {e}"))?;
        out.push(Sample {
            member,
            latency_ms: (received - due).as_secs_f64() * 1e3,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            round_trip_ms: (received - sent).as_secs_f64() * 1e3,
            response,
            due,
            received,
        });
    }
    Ok(out)
}

/// Closed loop: `conns` threads, each with one pipelined connection
/// keeping [`WINDOW`] requests in flight until `length` has passed.
/// Returns the samples and the Ok responses per second received within
/// `length`.
fn closed_loop(
    addr: &str,
    pool: &[Member],
    length: Duration,
    conns: usize,
    seed: u64,
    zipf: &Zipf,
) -> Result<(Vec<Sample>, f64), String> {
    let t0 = Instant::now();
    let deadline = t0 + length;
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let rng = Rng::derive(seed, &format!("serve-closed-{c}"));
                    let mut deck = Deck::new(zipf, DECK, rng);
                    let mut client = PipelinedClient::connect(addr, CLIENT_TIMEOUT)
                        .map_err(|e| format!("connecting: {e}"))?;
                    let mut in_flight = std::collections::VecDeque::new();
                    let mut out = Vec::new();
                    loop {
                        while in_flight.len() < WINDOW && Instant::now() < deadline {
                            let member = deck.draw();
                            let sent = Instant::now();
                            client
                                .send(&request(&pool[member]))
                                .map_err(|e| format!("sending: {e}"))?;
                            in_flight.push_back((member, sent));
                        }
                        let Some((member, sent)) = in_flight.pop_front() else {
                            break;
                        };
                        let response = client.recv().map_err(|e| format!("receiving: {e}"))?;
                        let received = Instant::now();
                        let ms = (received - sent).as_secs_f64() * 1e3;
                        out.push(Sample {
                            member,
                            latency_ms: ms,
                            late_ms: 0.0,
                            round_trip_ms: ms,
                            response,
                            due: sent,
                            received,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client panicked".to_string())?)
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for r in per_conn {
        all.extend(r?);
    }
    let ok = all
        .iter()
        .filter(|s| s.response.outcome == WireOutcome::Ok && s.received < deadline)
        .count();
    Ok((all, ok as f64 / length.as_secs_f64()))
}

/// Checks one served response against its member's offline reference.
fn check_sample(pool: &[Member], s: &Sample) -> Result<(), String> {
    let member = &pool[s.member];
    if s.response.outcome != WireOutcome::Ok {
        return Err(format!(
            "`{}`: {:?} {:?}",
            member.name, s.response.outcome, s.response.error
        ));
    }
    check::identical_matches(&member.reference, &s.response.matches)
        .map_err(|e| format!("`{}`: {e}", member.name))
}

/// One measured pass: the three rate steps, then the closed loop.
fn measure(
    ctx: &Ctx,
    server: &Server,
    pool: &[Member],
    pass: &str,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let addr = server.local_addr().to_string();
    let zipf = Zipf::new(POOL, ZIPF_S);
    // One thread sends; the rest of the thread budget receives.
    let conns = ctx.threads.saturating_sub(1).max(1);
    let stats0 = server.stats();
    let mut parts = Vec::new();
    let mut steps = Vec::new();
    for (label, rate, share) in STEPS {
        let mut count = ((ctx.duration().as_secs_f64() * share * rate).round() as usize).max(1);
        if label == "low" {
            count = DECK * (count as f64 / DECK as f64).round().max(1.0) as usize;
        }
        let mut deck = Deck::new(
            &zipf,
            DECK,
            Rng::derive(ctx.seed, &format!("serve-{label}")),
        );
        let step = part(server, label, &mut parts, || {
            open_loop(&addr, pool, (label, rate), count, conns, &mut deck)
        })?;
        let sum = step.summary().expect("every step sends");
        eprintln!(
            "perfbench: {pass} {label} {rate}/s: {} requests, p50 {:.2}ms, p{:.1} {:.2}ms, late ≤{:.2}ms{}",
            sum.n,
            sum.p50,
            sum.tail_pct,
            sum.tail,
            step.late_ms_max,
            if step.meets_limit() { "" } else { " (misses the limit)" }
        );
        steps.push(step);
    }
    let length = ctx
        .duration()
        .mul_f64(1.0 - STEPS.iter().map(|s| s.2).sum::<f64>());
    let (closed, closed_rate) = part(server, "closed", &mut parts, || {
        closed_loop(&addr, pool, length, ctx.threads, ctx.seed, &zipf)
    })?;
    let counters = parts
        .iter()
        .fold(Counters::default(), |acc, p| acc.plus(&p.counters));
    let stats = server.stats();
    for s in steps.iter().flat_map(|st| &st.samples).chain(&closed) {
        out.check("served response", check_sample(pool, s));
    }
    out.check(
        "served queries hit the warm VCP cache",
        if counters.cache_misses == 0.0 {
            Ok(())
        } else {
            Err(format!("{} cache misses", counters.cache_misses))
        },
    );
    for st in &steps[..2] {
        out.check(
            &format!("{} step kept its schedule", st.label),
            if st.valid() {
                Ok(())
            } else {
                Err(format!("generator ran {:.1}ms late", st.late_ms_max))
            },
        );
    }
    Ok(Pass {
        steps,
        closed_rate,
        counters,
        batches: (stats.batches - stats0.batches) as f64,
        batched: (stats.batched_queries - stats0.batched_queries) as f64,
        coalesced: (stats.coalesced_queries - stats0.coalesced_queries) as f64,
        overloaded: (stats.overloaded - stats0.overloaded) as f64,
        deadline_exceeded: (stats.deadline_exceeded - stats0.deadline_exceeded) as f64,
        parts,
        closed,
    })
}

/// Latency of every closed-loop request, from its send.
fn closed_summary(pass: &Pass) -> Summary {
    summarize(&pass.closed.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
        .expect("the closed loop sends")
}

fn step<'a>(pass: &'a Pass, label: &str) -> &'a Step {
    pass.steps
        .iter()
        .find(|s| s.label == label)
        .expect("every rate step runs")
}

/// The end-to-end figures come from the closed loop, as on `cold_scale`.
/// The open-loop latencies are per-layer figures: with the daemon idle
/// between requests they followed a shared host's contention far more
/// than its throughput did (ten runs on a contended host: low-step median
/// 31-45 ms, IQR / median 0.32, against 0.15 for closed-loop throughput).
fn report_end_to_end(pool: &[Member], pass: &Pass, out: &mut Outcome) {
    let measured = closed_summary(pass);
    out.set(
        "peak_rss_mb",
        median(&pass.parts.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
    );
    out.set("queries_per_s", pass.closed_rate);
    out.set("query_p50_ms", measured.p50);
    out.set("query_tail_ms", measured.tail);
    // The pool's rankings as the daemon serves them (every served
    // response matched its member's reference byte for byte), one value
    // per member however often the Zipf draws picked it.
    let recall = mean(&pool.iter().map(|m| m.recall).collect::<Vec<_>>());
    out.set("recall_at_10", recall);
    out.set("query.samples", measured.n as f64);
    out.set("query_tail.pct", measured.tail_pct);
    eprintln!(
        "perfbench: closed loop {:.2} ok/s, p50 {:.2}ms, p{:.1} {:.2}ms; recall@10 {:.4}; peak RSS by part {:.1?}MB",
        pass.closed_rate,
        measured.p50,
        measured.tail_pct,
        measured.tail,
        recall,
        pass.parts.iter().map(|p| p.rss_mb).collect::<Vec<_>>()
    );
}

/// Per-layer metrics of the traced pass, and its spans in `tracer`,
/// which must have been created before the pass began: one span per part
/// (`low`, `mid`, `high`, `closed`) carrying the daemon's counter deltas,
/// and under it one `request` per request with its generator lateness
/// and its time in the daemon (`queue_ms`, `latency_ms` as the daemon
/// reported them).
fn report_layers(
    ctx: &Ctx,
    pool: &[Member],
    corpus: &Corpus,
    untraced: &Pass,
    traced: &Pass,
    mut tracer: Tracer,
    out: &mut Outcome,
) -> Tracer {
    let per_part = traced
        .steps
        .iter()
        .map(|st| &st.samples)
        .chain([&traced.closed]);
    for (p, samples) in traced.parts.iter().zip(per_part) {
        let part = tracer.record(None, p.label, p.start, p.end, p.counters.attrs());
        for s in samples {
            let sent = s.received - Duration::from_secs_f64(s.round_trip_ms / 1e3);
            let root = tracer.record(
                Some(part),
                "request",
                s.due,
                s.received,
                vec![("member", s.member as f64)],
            );
            tracer.record(Some(root), "loadgen.late", s.due, sent, vec![]);
            tracer.record(
                Some(root),
                "serve.request",
                sent,
                s.received,
                vec![
                    ("queue_ms", s.response.queue_ms as f64),
                    ("latency_ms", s.response.latency_ms as f64),
                ],
            );
        }
    }
    let all: Vec<&Sample> = traced
        .steps
        .iter()
        .flat_map(|st| &st.samples)
        .chain(&traced.closed)
        .collect();
    let ok: Vec<&&Sample> = all
        .iter()
        .filter(|s| s.response.outcome == WireOutcome::Ok)
        .collect();
    let field = |f: fn(&Sample) -> f64| mean(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.set("serve.queue_ms", field(|s| s.response.queue_ms as f64));
    out.set(
        "serve.exec_ms",
        field(|s| (s.response.latency_ms - s.response.queue_ms) as f64),
    );
    out.set(
        "serve.wire_ms",
        field(|s| s.round_trip_ms - s.response.latency_ms as f64),
    );
    out.set("serve.batches", traced.batches);
    out.set(
        "serve.batch_occupancy",
        ratio(traced.batched, traced.batches),
    );
    out.set(
        "serve.coalesced_share",
        ratio(traced.coalesced, traced.batched),
    );
    out.set("serve.overloaded", traced.overloaded);
    out.set("serve.deadline_exceeded", traced.deadline_exceeded);
    for (label, p50, tail) in [
        ("low", "serve_p50_ms.low", "serve_tail_ms.low"),
        ("mid", "serve_p50_ms.mid", "serve_tail_ms.mid"),
    ] {
        let sum = step(traced, label).summary().expect("every step sends");
        out.set(p50, sum.p50);
        out.set(tail, sum.tail);
    }
    let max_rate = traced
        .steps
        .iter()
        .filter(|s| s.meets_limit())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    out.set("max_rate_rps", max_rate);
    out.set(
        "loadgen.late_ms_max",
        traced
            .steps
            .iter()
            .map(|s| s.late_ms_max)
            .fold(0.0, f64::max),
    );
    // Every measured request names a pool member set-up already queried.
    out.set("loadgen.repeat_share", 1.0);
    // The warm pass belongs to `cold_scale`'s scale index.
    for name in [
        "warm.queries_per_s",
        "warm.query_p50_ms",
        "warm.cache_misses",
        "warm.sat_queries",
        "warm.classes_decoded",
    ] {
        out.set(name, 0.0);
    }

    // The daemon owns the engine; its time shows as serve.exec_ms.
    out.set("engine.query_ms", 0.0);
    let sketch = EngineConfig::default().sketch;
    let (mut prep, mut sk, mut strands) = (vec![], vec![], vec![]);
    for m in pool {
        let t = crate::time_strand_layers(&corpus.procs[m.qi].proc_, sketch.as_ref());
        prep.push((t.prepared - t.start).as_secs_f64() * 1e3);
        sk.push((t.sketched - t.prepared).as_secs_f64() * 1e3);
        strands.push(t.strands as f64);
    }
    out.set("strands.prepare_ms", median(&prep));
    out.set("prefilter.sketch_ms", median(&sk));
    out.set("strands.per_query", mean(&strands));
    let busy_ms: f64 = ok
        .iter()
        .map(|s| (s.response.latency_ms - s.response.queue_ms) as f64)
        .sum();
    traced
        .counters
        .report(&mut out.metrics, busy_ms, ctx.threads);
    let base = closed_summary(untraced).p50;
    let with = closed_summary(traced).p50;
    out.set("trace.overhead_share", ratio(with, base) - 1.0);
    tracer
}

/// `serve_paper`.
pub fn paper(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (engine, corpus) = set_up(ctx, &mut out)?;
    let pool = warm_pool(&engine, &corpus, &mut out);
    // The daemon serves the pool warm only after the warm-up, so set-up
    // time is the median index set-up plus the warm-up. (The index
    // set-up alone takes a fifth of a second, and its median moved by a
    // quarter between sets of runs on a busy host.)
    let warmup_s = out.metrics["setup.warmup_ms"] / 1e3;
    *out.metrics.get_mut("setup_s").expect("set-up was reported") += warmup_s;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: ctx.threads,
        default_top_n: TOP_N,
        shard_budget_mb: Some(SHARD_BUDGET_MB),
        ..ServeConfig::default()
    };
    let served_corpus = if ctx.trace {
        corpus.clone()
    } else {
        Corpus::default()
    };
    let server =
        Server::start(engine, corpus, config).map_err(|e| format!("starting the daemon: {e}"))?;
    let result = (|| {
        let untraced = measure(ctx, &server, &pool, "untraced", &mut out)?;
        report_end_to_end(&pool, &untraced, &mut out);
        if ctx.trace {
            let tracer = Tracer::new();
            let traced = measure(ctx, &server, &pool, "traced", &mut out)?;
            out.tracer = Some(report_layers(
                ctx,
                &pool,
                &served_corpus,
                &untraced,
                &traced,
                tracer,
                &mut out,
            ));
        }
        Ok::<(), String>(())
    })();
    let final_stats = server.shutdown();
    eprintln!(
        "perfbench: daemon drained after {} requests",
        final_stats.total()
    );
    result?;
    Ok(out)
}
