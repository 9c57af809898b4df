//! Incremental equality solving: one long-lived SAT instance shared
//! across many closely-related `a == b` queries.
//!
//! A [`BitBlaster`] already memoizes Tseitin encodings by `TermId`, which
//! is sound because the [`TermPool`] is append-only and hash-consing — an
//! id never changes meaning. The [`IncrementalBlaster`] adds the query
//! protocol that makes reuse pay off across *solves*, not just encodings:
//!
//! - Each query `a == b` builds (or reuses) the comparator literal `eq`
//!   and asserts the disequality under a **fresh activation literal**
//!   `act`: the clause `(¬act ∨ ¬eq)` is added permanently, and the solve
//!   runs under the assumption `act`. Assumptions enter the CDCL search
//!   as decisions, so clauses learned during the solve may *mention*
//!   `act` but never resolve it away — every learnt clause is a
//!   consequence of the shared formula alone and stays sound for later
//!   queries. VSIDS activities and saved phases carry over the same way.
//! - After the solve, the unit `¬act` permanently deactivates the
//!   disequality, so it cannot constrain later queries. When the solve
//!   proved `Unsat` (the equality is valid), the unit `eq` is also added:
//!   `act` was fresh and appears only in `(¬act ∨ ¬eq)`, so unsatisfiable
//!   under `act` means the formula entails `¬eq ⇒ ⊥`, i.e. `eq` — keeping
//!   the lemma lets later queries rewrite through proved equalities for
//!   free.
//! - Clause-database hygiene: when retained learnt clauses exceed
//!   [`IncrementalLimits::reduce_learnts_at`], the lower-activity half of
//!   long learnts is dropped ([`crate::sat::Solver::reduce_learnts`]). When the
//!   instance outgrows the hard var/clause watermark, the whole solver is
//!   discarded and rebuilt fresh — correctness never depends on reuse.

use std::collections::HashSet;
use std::time::Instant;

use crate::bitblast::BitBlaster;
use crate::sat::{Lit, SatResult};
use crate::term::{TermId, TermPool};

/// Growth watermarks for the shared solver instance.
///
/// The defaults are deliberately small. Every solve on the shared
/// instance assigns and propagates the *whole* live circuit — the input
/// variables are shared by design, so assigning them fires the watch
/// lists of every retained gate, old cones included — which makes
/// per-query cost proportional to instance size, not cone size. Reuse
/// only pays while the live instance is a small multiple of one query's
/// cone (a few thousand variables covers the run of closely-related
/// queries one strand pair generates); past that, resetting is nearly
/// free while an oversized instance taxes every subsequent solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalLimits {
    /// Discard and rebuild the solver when it holds more variables.
    pub max_vars: usize,
    /// Discard and rebuild the solver when it holds more clauses.
    pub max_clauses: usize,
    /// Run learnt-clause reduction when more learnts are retained.
    pub reduce_learnts_at: usize,
}

impl Default for IncrementalLimits {
    fn default() -> IncrementalLimits {
        IncrementalLimits {
            max_vars: 1_200,
            max_clauses: 5_000,
            reduce_learnts_at: 1_000,
        }
    }
}

/// Per-session solver performance counters.
///
/// Filled by both the incremental and the fresh-blaster paths so the two
/// are comparable; aggregated per worker by the engine and surfaced in
/// `esh query` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverPerf {
    /// SAT queries issued (one per `prove_equal` that reached the solver).
    pub sat_queries: u64,
    /// Tseitin encodings served from the per-term CNF cache.
    pub blast_cache_hits: u64,
    /// Tseitin encodings built fresh.
    pub blast_cache_misses: u64,
    /// Total CDCL conflicts across all queries.
    pub conflicts: u64,
    /// Wall time spent inside the SAT solver, in nanoseconds.
    pub sat_time_ns: u64,
    /// Learnt clauses currently retained in the shared solver (a gauge,
    /// not a counter — `merge` takes the max).
    pub retained_learnts: u64,
    /// Learnt clauses dropped by database reductions.
    pub learnts_dropped: u64,
    /// Times the shared solver hit a watermark (or went inconsistent)
    /// and was rebuilt from scratch.
    pub solver_resets: u64,
}

impl SolverPerf {
    /// Mean conflicts per SAT query, `0.0` when no query ran.
    pub fn conflicts_per_query(&self) -> f64 {
        if self.sat_queries == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.sat_queries as f64
        }
    }

    /// Counters accumulated since `earlier` (which must be a previous
    /// snapshot of the same counter set). The retained-learnts gauge is
    /// carried over as-is, not differenced.
    pub fn delta_since(&self, earlier: &SolverPerf) -> SolverPerf {
        SolverPerf {
            sat_queries: self.sat_queries - earlier.sat_queries,
            blast_cache_hits: self.blast_cache_hits - earlier.blast_cache_hits,
            blast_cache_misses: self.blast_cache_misses - earlier.blast_cache_misses,
            conflicts: self.conflicts - earlier.conflicts,
            sat_time_ns: self.sat_time_ns - earlier.sat_time_ns,
            retained_learnts: self.retained_learnts,
            learnts_dropped: self.learnts_dropped - earlier.learnts_dropped,
            solver_resets: self.solver_resets - earlier.solver_resets,
        }
    }

    /// Folds another counter set into this one (counters add; the
    /// retained-learnts gauge takes the max).
    pub fn merge(&mut self, other: &SolverPerf) {
        self.sat_queries += other.sat_queries;
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
        self.conflicts += other.conflicts;
        self.sat_time_ns += other.sat_time_ns;
        self.retained_learnts = self.retained_learnts.max(other.retained_learnts);
        self.learnts_dropped += other.learnts_dropped;
        self.solver_resets += other.solver_resets;
    }
}

/// A persistent bit-blasting solver shared across equality queries.
///
/// See the module docs for the activation-literal protocol and its
/// soundness argument. The blaster is tied to one (append-only)
/// [`TermPool`]; passing terms from a different pool is a logic error.
pub struct IncrementalBlaster {
    bb: BitBlaster,
    /// Queries already decided `valid` on this instance; served without
    /// touching the solver (the `eq` lemma unit makes re-solving trivial
    /// anyway, but skipping it avoids a propagate).
    proved: HashSet<(TermId, TermId)>,
}

impl Default for IncrementalBlaster {
    fn default() -> IncrementalBlaster {
        IncrementalBlaster::new()
    }
}

impl IncrementalBlaster {
    /// Creates a blaster with a fresh solver.
    pub fn new() -> IncrementalBlaster {
        IncrementalBlaster {
            bb: BitBlaster::new(),
            proved: HashSet::new(),
        }
    }

    /// Learnt clauses currently retained by the shared solver.
    pub fn retained_learnts(&self) -> usize {
        self.bb.sat.learnt_count()
    }

    /// Checks validity of `a == b` under `budget` conflicts, reusing the
    /// shared solver: `Some(true)` valid, `Some(false)` refuted, `None`
    /// budget exhausted. Updates `perf` with the query's cost.
    pub fn prove_equal(
        &mut self,
        pool: &TermPool,
        a: TermId,
        b: TermId,
        budget: u64,
        limits: &IncrementalLimits,
        perf: &mut SolverPerf,
    ) -> Option<bool> {
        let key = if a < b { (a, b) } else { (b, a) };
        if self.proved.contains(&key) {
            return Some(true);
        }
        // Hard watermark: a grown-out (or inconsistent) instance is
        // replaced wholesale; nothing below relies on history.
        if !self.bb.sat.is_ok()
            || self.bb.sat.num_vars() > limits.max_vars
            || self.bb.sat.num_clauses() > limits.max_clauses
        {
            self.reset(perf);
        }
        let res = match self.query(pool, key, budget, perf) {
            Some(r) => Some(r),
            // `query` returns None for both a budget-exhausted solve and
            // a solver that went inconsistent mid-encoding (only possible
            // on an instance carrying history); retry the latter once on
            // a fresh solver.
            None if !self.bb.sat.is_ok() => {
                self.reset(perf);
                self.query(pool, key, budget, perf)
            }
            None => None,
        };
        if res == Some(true) {
            self.proved.insert(key);
        }
        self.maintain(limits, perf);
        res
    }

    fn query(
        &mut self,
        pool: &TermPool,
        key: (TermId, TermId),
        budget: u64,
        perf: &mut SolverPerf,
    ) -> Option<bool> {
        let hits0 = self.bb.blast_hits;
        let misses0 = self.bb.blast_misses;
        let eq = self.bb.eq_lit(pool, key.0, key.1);
        perf.blast_cache_hits += self.bb.blast_hits - hits0;
        perf.blast_cache_misses += self.bb.blast_misses - misses0;
        if !self.bb.sat.is_ok() {
            return None;
        }
        let act = Lit::pos(self.bb.sat.new_var());
        self.bb.sat.add_clause(vec![act.negate(), eq.negate()]);
        let t0 = Instant::now();
        let res = self.bb.sat.solve_with_budget(&[act], budget);
        perf.sat_time_ns += t0.elapsed().as_nanos() as u64;
        perf.sat_queries += 1;
        perf.conflicts += self.bb.sat.conflicts;
        // Permanently retire this query's disequality.
        self.bb.sat.add_clause(vec![act.negate()]);
        match res {
            SatResult::Unsat => {
                // Valid equality: keep it as a unit lemma (see module
                // docs for why this is sound).
                self.bb.sat.add_clause(vec![eq]);
                Some(true)
            }
            SatResult::Sat => Some(false),
            SatResult::Unknown => None,
        }
    }

    /// Post-query hygiene: learnt-DB reduction and gauge upkeep.
    fn maintain(&mut self, limits: &IncrementalLimits, perf: &mut SolverPerf) {
        if self.bb.sat.learnt_count() > limits.reduce_learnts_at {
            perf.learnts_dropped += self.bb.sat.reduce_learnts() as u64;
        }
        perf.retained_learnts = perf.retained_learnts.max(self.bb.sat.learnt_count() as u64);
    }

    fn reset(&mut self, perf: &mut SolverPerf) {
        self.bb = BitBlaster::new();
        self.proved.clear();
        perf.solver_resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermPool;

    #[test]
    fn repeated_queries_reuse_encodings() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let y = p.var(1, 16);
        let lhs = p.xor(vec![x, y]);
        let or = p.or(vec![x, y]);
        let and = p.and(vec![x, y]);
        let rhs = p.sub(or, and);
        let mut inc = IncrementalBlaster::new();
        let limits = IncrementalLimits::default();
        let mut perf = SolverPerf::default();
        assert_eq!(
            inc.prove_equal(&p, lhs, rhs, u64::MAX, &limits, &mut perf),
            Some(true)
        );
        let misses_after_first = perf.blast_cache_misses;
        assert_eq!(perf.sat_queries, 1);
        // Second identical query: answered from the proved-set, no new
        // encodings, no new solve.
        assert_eq!(
            inc.prove_equal(&p, lhs, rhs, u64::MAX, &limits, &mut perf),
            Some(true)
        );
        assert_eq!(perf.sat_queries, 1);
        assert_eq!(perf.blast_cache_misses, misses_after_first);
        // A related query over the same sub-DAG hits the CNF cache.
        let c1 = p.constant(1, 16);
        let lhs1 = p.add2(lhs, c1);
        let rhs1 = p.add2(rhs, c1);
        let hits_before = perf.blast_cache_hits;
        assert_eq!(
            inc.prove_equal(&p, lhs1, rhs1, u64::MAX, &limits, &mut perf),
            Some(true)
        );
        assert!(perf.blast_cache_hits > hits_before);
    }

    #[test]
    fn refutation_does_not_poison_later_queries() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let c1 = p.constant(1, 16);
        let c2 = p.constant(2, 16);
        let a = p.add2(x, c1);
        let b = p.add2(x, c2);
        let mut inc = IncrementalBlaster::new();
        let limits = IncrementalLimits::default();
        let mut perf = SolverPerf::default();
        assert_eq!(
            inc.prove_equal(&p, a, b, u64::MAX, &limits, &mut perf),
            Some(false)
        );
        // The deactivated disequality must not make a valid query fail.
        let xx = p.add2(x, c1);
        assert_eq!(
            inc.prove_equal(&p, xx, a, u64::MAX, &limits, &mut perf),
            Some(true)
        );
        // And the same refutable query still refutes.
        assert_eq!(
            inc.prove_equal(&p, a, b, u64::MAX, &limits, &mut perf),
            Some(false)
        );
    }

    #[test]
    fn watermark_reset_preserves_correctness() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let y = p.var(1, 16);
        let lhs = p.xor(vec![x, y]);
        let or = p.or(vec![x, y]);
        let and = p.and(vec![x, y]);
        let rhs = p.sub(or, and);
        // Watermark so tight every query after the first trips it.
        let limits = IncrementalLimits {
            max_vars: 8,
            max_clauses: 16,
            reduce_learnts_at: 20_000,
        };
        let mut inc = IncrementalBlaster::new();
        let mut perf = SolverPerf::default();
        for _ in 0..3 {
            assert_eq!(
                inc.prove_equal(&p, lhs, rhs, u64::MAX, &limits, &mut perf),
                Some(true)
            );
            let c1 = p.constant(1, 16);
            let a = p.add2(x, c1);
            assert_eq!(
                inc.prove_equal(&p, x, a, u64::MAX, &limits, &mut perf),
                Some(false)
            );
        }
        assert!(perf.solver_resets > 0, "tight watermark must trigger resets");
    }
}
