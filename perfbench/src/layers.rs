//! Per-layer counters read from outside the program: the engine's
//! public `cache_stats`, `solver_stats`, `prefilter_stats` and
//! `shard_stats`, or — once the engine lives inside the daemon — the
//! counter lines of `Server::metrics` (never its histogram quantiles).

use std::collections::BTreeMap;

use esh_core::SimilarityEngine;

/// One reading of every engine counter the benchmark reports.
/// Counters subtract across a span; `decoded_bytes` and
/// `resident_peak_bytes` are gauges and keep the later reading.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub sat_queries: f64,
    pub sat_ms: f64,
    pub conflicts: f64,
    pub blast_hits: f64,
    pub blast_misses: f64,
    pub resets: f64,
    pub pairs_pruned: f64,
    pub sketch_collisions: f64,
    pub exact_fallbacks: f64,
    pub ambiguous_probes: f64,
    pub probe_escalations: f64,
    pub refined_pairs: f64,
    pub fanout: f64,
    pub shards_pruned: f64,
    pub classes_decoded: f64,
    pub evicted: f64,
    pub decoded_bytes: f64,
    pub resident_peak_bytes: f64,
}

impl Counters {
    /// Reads the engine's public counters.
    pub fn read(engine: &SimilarityEngine) -> Counters {
        let c = engine.cache_stats();
        let s = engine.solver_stats();
        let p = engine.prefilter_stats();
        let h = engine.shard_stats();
        Counters {
            cache_hits: c.hits as f64,
            cache_misses: c.misses as f64,
            sat_queries: s.sat_queries as f64,
            sat_ms: s.sat_time_ns as f64 / 1e6,
            conflicts: s.conflicts as f64,
            blast_hits: s.blast_cache_hits as f64,
            blast_misses: s.blast_cache_misses as f64,
            resets: s.solver_resets as f64,
            pairs_pruned: p.pairs_pruned as f64,
            sketch_collisions: p.sketch_collisions as f64,
            exact_fallbacks: p.exact_fallbacks as f64,
            ambiguous_probes: p.ambiguous_probes as f64,
            probe_escalations: p.probe_escalations as f64,
            refined_pairs: p.refined_pairs as f64,
            fanout: h.fanout_total as f64,
            shards_pruned: h.pruned_total as f64,
            classes_decoded: h.classes_decoded_total as f64,
            evicted: h.evicted_total as f64,
            decoded_bytes: h.decoded_bytes as f64,
            resident_peak_bytes: h.resident_bytes_peak as f64,
        }
    }

    /// Reads the same counters from a `/metrics` payload. The daemon
    /// does not export the solver's bit-blast cache counters, so those
    /// stay 0 here.
    pub fn from_metrics(text: &str) -> Result<Counters, String> {
        let values: BTreeMap<&str, f64> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k, v.trim().parse().ok()?))
            })
            .collect();
        let get = |k: &str| {
            values
                .get(k)
                .copied()
                .ok_or_else(|| format!("/metrics lacks `{k}`"))
        };
        Ok(Counters {
            cache_hits: get("esh_vcp_cache_hits_total")?,
            cache_misses: get("esh_vcp_cache_misses_total")?,
            sat_queries: get("esh_sat_queries_total")?,
            sat_ms: get("esh_sat_time_ms")?,
            conflicts: get("esh_sat_conflicts_total")?,
            blast_hits: 0.0,
            blast_misses: 0.0,
            resets: get("esh_sat_solver_resets_total")?,
            pairs_pruned: get("esh_prefilter_pairs_pruned_total")?,
            sketch_collisions: get("esh_prefilter_sketch_collisions_total")?,
            exact_fallbacks: get("esh_prefilter_exact_fallbacks_total")?,
            ambiguous_probes: get("esh_prefilter_ambiguous_probes_total")?,
            probe_escalations: get("esh_prefilter_probe_escalations_total")?,
            refined_pairs: get("esh_prefilter_refined_pairs_total")?,
            fanout: get("esh_shard_fanout_total")?,
            shards_pruned: get("esh_shards_pruned_total")?,
            classes_decoded: get("esh_classes_decoded_total")?,
            evicted: get("esh_shards_evicted_total")?,
            decoded_bytes: get("esh_shard_decoded_bytes")?,
            resident_peak_bytes: get("esh_shards_resident_bytes_peak")?,
        })
    }

    /// What changed since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            sat_queries: self.sat_queries - earlier.sat_queries,
            sat_ms: self.sat_ms - earlier.sat_ms,
            conflicts: self.conflicts - earlier.conflicts,
            blast_hits: self.blast_hits - earlier.blast_hits,
            blast_misses: self.blast_misses - earlier.blast_misses,
            resets: self.resets - earlier.resets,
            pairs_pruned: self.pairs_pruned - earlier.pairs_pruned,
            sketch_collisions: self.sketch_collisions - earlier.sketch_collisions,
            exact_fallbacks: self.exact_fallbacks - earlier.exact_fallbacks,
            ambiguous_probes: self.ambiguous_probes - earlier.ambiguous_probes,
            probe_escalations: self.probe_escalations - earlier.probe_escalations,
            refined_pairs: self.refined_pairs - earlier.refined_pairs,
            fanout: self.fanout - earlier.fanout,
            shards_pruned: self.shards_pruned - earlier.shards_pruned,
            classes_decoded: self.classes_decoded - earlier.classes_decoded,
            evicted: self.evicted - earlier.evicted,
            decoded_bytes: self.decoded_bytes,
            resident_peak_bytes: self.resident_peak_bytes,
        }
    }

    /// Two deltas taken back to back: counters add, gauges keep the
    /// larger reading.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            sat_queries: self.sat_queries + other.sat_queries,
            sat_ms: self.sat_ms + other.sat_ms,
            conflicts: self.conflicts + other.conflicts,
            blast_hits: self.blast_hits + other.blast_hits,
            blast_misses: self.blast_misses + other.blast_misses,
            resets: self.resets + other.resets,
            pairs_pruned: self.pairs_pruned + other.pairs_pruned,
            sketch_collisions: self.sketch_collisions + other.sketch_collisions,
            exact_fallbacks: self.exact_fallbacks + other.exact_fallbacks,
            ambiguous_probes: self.ambiguous_probes + other.ambiguous_probes,
            probe_escalations: self.probe_escalations + other.probe_escalations,
            refined_pairs: self.refined_pairs + other.refined_pairs,
            fanout: self.fanout + other.fanout,
            shards_pruned: self.shards_pruned + other.shards_pruned,
            classes_decoded: self.classes_decoded + other.classes_decoded,
            evicted: self.evicted + other.evicted,
            decoded_bytes: self.decoded_bytes.max(other.decoded_bytes),
            resident_peak_bytes: self.resident_peak_bytes.max(other.resident_peak_bytes),
        }
    }

    /// Span attributes carrying this delta.
    pub fn attrs(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            ("solver.sat_queries", self.sat_queries),
            ("solver.sat_ms", self.sat_ms),
            ("solver.conflicts", self.conflicts),
            ("prefilter.pairs_pruned", self.pairs_pruned),
            ("prefilter.sketch_collisions", self.sketch_collisions),
            ("prefilter.exact_fallbacks", self.exact_fallbacks),
            ("shard.fanout", self.fanout),
            ("shard.pruned", self.shards_pruned),
            ("shard.classes_decoded", self.classes_decoded),
            ("shard.evicted", self.evicted),
        ]
    }

    /// The per-layer metrics of the engine's modules over one measured
    /// phase. `engine_busy_ms × threads` is the CPU time the phase had
    /// available to the engine, the base of `solver.cpu_share`.
    pub fn report(
        &self,
        out: &mut BTreeMap<&'static str, f64>,
        engine_busy_ms: f64,
        threads: usize,
    ) {
        use crate::stats::ratio;
        let priced = self.pairs_pruned + self.sketch_collisions + self.exact_fallbacks;
        for (k, v) in [
            ("prefilter.pairs_pruned", self.pairs_pruned),
            ("prefilter.sketch_collisions", self.sketch_collisions),
            ("prefilter.exact_fallbacks", self.exact_fallbacks),
            ("prefilter.ambiguous_probes", self.ambiguous_probes),
            ("prefilter.probe_escalations", self.probe_escalations),
            ("prefilter.refined_pairs", self.refined_pairs),
            ("prefilter.prune_share", ratio(self.pairs_pruned, priced)),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            (
                "cache.hit_rate",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            ("solver.sat_queries", self.sat_queries),
            ("solver.sat_ms", self.sat_ms),
            ("solver.conflicts", self.conflicts),
            (
                "solver.blast_hit_rate",
                ratio(self.blast_hits, self.blast_hits + self.blast_misses),
            ),
            ("solver.resets", self.resets),
            (
                "solver.cpu_share",
                ratio(self.sat_ms, engine_busy_ms * threads as f64),
            ),
            ("shard.fanout", self.fanout),
            ("shard.pruned", self.shards_pruned),
            ("shard.classes_decoded", self.classes_decoded),
            ("shard.decoded_bytes", self.decoded_bytes),
            ("shard.evicted", self.evicted),
            ("shard.resident_peak_bytes", self.resident_peak_bytes),
        ] {
            out.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_payload_parses_and_counters_subtract() {
        let page = |hits: u64, decoded: u64| {
            format!(
                "# HELP x\nesh_vcp_cache_hits_total {hits}\nesh_vcp_cache_misses_total 2\n\
                 esh_sat_queries_total 5\nesh_sat_time_ms 1.500\nesh_sat_conflicts_total 9\n\
                 esh_sat_solver_resets_total 0\nesh_prefilter_pairs_pruned_total 40\n\
                 esh_prefilter_sketch_collisions_total 7\nesh_prefilter_exact_fallbacks_total 3\n\
                 esh_prefilter_ambiguous_probes_total 1\nesh_prefilter_probe_escalations_total 0\n\
                 esh_prefilter_refined_pairs_total 4\nesh_shard_fanout_total 11\n\
                 esh_shards_pruned_total 6\nesh_classes_decoded_total 8\n\
                 esh_shards_evicted_total 2\nesh_shard_decoded_bytes {decoded}\n\
                 esh_shards_resident_bytes_peak 900\n\
                 esh_request_latency_ms_bucket{{le=\"5\"}} 3\n"
            )
        };
        let a = Counters::from_metrics(&page(10, 100)).unwrap();
        let b = Counters::from_metrics(&page(25, 70)).unwrap();
        let d = b.since(&a);
        assert_eq!(d.cache_hits, 15.0);
        assert_eq!(d.cache_misses, 0.0);
        assert_eq!(d.decoded_bytes, 70.0, "gauges keep the later reading");
        assert_eq!(a.sat_ms, 1.5);
        assert!(Counters::from_metrics("esh_vcp_cache_hits_total 1\n").is_err());
    }
}
