//! Output checks. Each one compares what the program returned against
//! an independent expectation and fails loudly on any difference.

use esh_core::QueryScores;
use esh_serve::RankedMatch;

/// `cold_scale`: every target got a score, and every score is finite.
pub fn finite_for_every_target(scores: &QueryScores, targets: usize) -> Result<(), String> {
    if scores.scores.len() != targets {
        return Err(format!(
            "{} scores for {targets} targets",
            scores.scores.len()
        ));
    }
    for (i, s) in scores.scores.iter().enumerate() {
        if s.target.0 != i {
            return Err(format!("score {i} belongs to target {}", s.target.0));
        }
        if !(s.ges.is_finite() && s.s_log.is_finite() && s.s_vcp.is_finite()) {
            return Err(format!("non-finite score for `{}`", s.name));
        }
    }
    Ok(())
}

/// The warm pass of `cold_scale`: the whole score vector is bit-identical to the
/// reference — target order, names and the f64 bits of every score.
pub fn identical_scores(reference: &QueryScores, got: &QueryScores) -> Result<(), String> {
    if reference.scores.len() != got.scores.len() {
        return Err(format!(
            "{} scores vs {} in the reference",
            got.scores.len(),
            reference.scores.len()
        ));
    }
    for (r, g) in reference.scores.iter().zip(&got.scores) {
        let same = r.target == g.target
            && r.name == g.name
            && r.ges.to_bits() == g.ges.to_bits()
            && r.s_log.to_bits() == g.s_log.to_bits()
            && r.s_vcp.to_bits() == g.s_vcp.to_bits();
        if !same {
            return Err(format!("score for `{}` differs from the reference", r.name));
        }
    }
    Ok(())
}

/// `serve_paper`: a served match list is byte-identical to the offline
/// reference — rank, name and the f64 bits of every score.
pub fn identical_matches(reference: &[RankedMatch], got: &[RankedMatch]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{} matches vs {} in the reference",
            got.len(),
            reference.len()
        ));
    }
    for (r, g) in reference.iter().zip(got) {
        let same = r.rank == g.rank
            && r.name == g.name
            && r.ges.to_bits() == g.ges.to_bits()
            && r.s_log.to_bits() == g.s_log.to_bits()
            && r.s_vcp.to_bits() == g.s_vcp.to_bits();
        if !same {
            return Err(format!(
                "match at rank {} (`{}`) differs from the reference",
                r.rank, r.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_core::{TargetId, TargetScore};

    fn scores() -> QueryScores {
        let scores = (0..4)
            .map(|i| TargetScore {
                target: TargetId(i),
                name: format!("t{i}"),
                ges: 10.0 - i as f64,
                s_log: 1.5 * i as f64,
                s_vcp: 0.25,
            })
            .collect();
        QueryScores {
            scores,
            query_strands: 3,
            query_strand_occurrences: 5,
        }
    }

    fn matches() -> Vec<RankedMatch> {
        scores()
            .scores
            .iter()
            .enumerate()
            .map(|(i, s)| RankedMatch {
                rank: i as u64 + 1,
                name: s.name.clone(),
                ges: s.ges,
                s_log: s.s_log,
                s_vcp: s.s_vcp,
            })
            .collect()
    }

    #[test]
    fn finite_check_rejects_nan_missing_and_misplaced_scores() {
        assert!(finite_for_every_target(&scores(), 4).is_ok());
        let mut nan = scores();
        nan.scores[2].ges = f64::NAN;
        assert!(finite_for_every_target(&nan, 4).is_err());
        let mut inf = scores();
        inf.scores[1].s_vcp = f64::INFINITY;
        assert!(finite_for_every_target(&inf, 4).is_err());
        let mut short = scores();
        short.scores.pop();
        assert!(finite_for_every_target(&short, 4).is_err());
        let mut swapped = scores();
        swapped.scores.swap(0, 1);
        assert!(finite_for_every_target(&swapped, 4).is_err());
    }

    #[test]
    fn score_identity_rejects_a_one_ulp_change_and_a_reorder() {
        let reference = scores();
        assert!(identical_scores(&reference, &scores()).is_ok());
        let mut ulp = scores();
        ulp.scores[3].ges = f64::from_bits(ulp.scores[3].ges.to_bits() + 1);
        assert!(identical_scores(&reference, &ulp).is_err());
        let mut reordered = scores();
        reordered.scores.swap(1, 2);
        assert!(identical_scores(&reference, &reordered).is_err());
        let mut slog = scores();
        slog.scores[0].s_log = -0.0;
        assert!(identical_scores(&reference, &slog).is_err());
    }

    #[test]
    fn match_identity_rejects_perturbed_rankings() {
        let reference = matches();
        assert!(identical_matches(&reference, &matches()).is_ok());
        let mut swapped = matches();
        swapped.swap(0, 1);
        assert!(identical_matches(&reference, &swapped).is_err());
        let mut ulp = matches();
        ulp[2].s_vcp = f64::from_bits(ulp[2].s_vcp.to_bits() ^ 1);
        assert!(identical_matches(&reference, &ulp).is_err());
        let mut renamed = matches();
        renamed[1].name.push('x');
        assert!(identical_matches(&reference, &renamed).is_err());
        let mut truncated = matches();
        truncated.pop();
        assert!(identical_matches(&reference, &truncated).is_err());
    }
}
