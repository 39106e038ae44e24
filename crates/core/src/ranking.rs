//! Green500-style ranking of systems by TGI.
//!
//! The motivation for a single-number metric (§I) is *rankability*: the
//! TOP500/Green500 lists order systems by one number. [`Ranking`] holds a set
//! of scored systems and produces a stable, descending order (greener first),
//! breaking ties by name so the order is deterministic.

use crate::error::TgiError;
use crate::tgi::TgiResult;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// One system's entry in a ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedSystem {
    /// Display name of the system.
    pub name: String,
    /// The system's Green Index.
    pub tgi: f64,
    /// Optional per-benchmark decomposition retained for reports.
    pub detail: Option<TgiResult>,
}

/// A collection of systems ordered by TGI (descending).
///
/// ```
/// use tgi_core::Ranking;
/// let mut list = Ranking::new();
/// list.add("fire", 0.4);
/// list.add("ember", 1.2);
/// assert_eq!(list.rank_of("ember"), Some(1));
/// assert_eq!(list.greenest().unwrap().name, "ember");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Ranking {
    entries: Vec<RankedSystem>,
}

impl Ranking {
    /// Creates an empty ranking.
    pub fn new() -> Self {
        Ranking::default()
    }

    /// Adds a system by name and raw TGI value.
    ///
    /// # Panics
    /// Panics on a non-finite score; use [`Ranking::try_add`] to reject it
    /// as an error instead.
    pub fn add(&mut self, name: impl Into<String>, tgi: f64) {
        self.try_add(name, tgi).expect("TGI values are finite");
    }

    /// Adds a system by name and raw TGI value, rejecting non-finite
    /// scores: NaN has no place in a total order, and a ±∞ "score" always
    /// indicates an upstream division gone wrong, not a green machine.
    pub fn try_add(&mut self, name: impl Into<String>, tgi: f64) -> Result<(), TgiError> {
        self.insert(RankedSystem { name: name.into(), tgi, detail: None })
    }

    /// Builds a ranking from `(name, score)` pairs in one pass: every score
    /// is validated first — a non-finite one is rejected and nothing is
    /// built — then the list is sorted once, into the order the same
    /// [`Ranking::try_add`] calls reach one insert at a time.
    pub fn try_from_scores<N: Into<String>>(
        scores: impl IntoIterator<Item = (N, f64)>,
    ) -> Result<Ranking, TgiError> {
        Ranking::from_entries(
            scores
                .into_iter()
                .map(|(name, tgi)| RankedSystem { name: name.into(), tgi, detail: None })
                .collect(),
        )
    }

    /// [`Ranking::try_from_scores`] for full TGI decompositions, as
    /// [`Ranking::try_add_result`] adds them.
    pub fn try_from_results<N: Into<String>>(
        results: impl IntoIterator<Item = (N, TgiResult)>,
    ) -> Result<Ranking, TgiError> {
        Ranking::from_entries(results.into_iter().map(|(name, r)| ranked_result(name, r)).collect())
    }

    fn from_entries(mut entries: Vec<RankedSystem>) -> Result<Ranking, TgiError> {
        if entries.iter().any(|e| !e.tgi.is_finite()) {
            return Err(TgiError::NotFinite { quantity: "ranking score" });
        }
        // Stable, so equal entries keep their input order, as repeated
        // inserts keep theirs.
        entries.sort_by(order);
        Ok(Ranking { entries })
    }

    /// Inserts after every entry that does not rank below it: the position
    /// a push followed by a stable sort would give, without the sort.
    fn insert(&mut self, entry: RankedSystem) -> Result<(), TgiError> {
        if !entry.tgi.is_finite() {
            return Err(TgiError::NotFinite { quantity: "ranking score" });
        }
        let at = self.entries.partition_point(|e| order(e, &entry) != Ordering::Greater);
        self.entries.insert(at, entry);
        Ok(())
    }

    /// Adds a system with its full TGI decomposition.
    ///
    /// # Panics
    /// Panics on a non-finite score, like [`Ranking::add`].
    pub fn add_result(&mut self, name: impl Into<String>, result: TgiResult) {
        self.try_add_result(name, result).expect("TGI values are finite");
    }

    /// Adds a system with its full TGI decomposition, rejecting non-finite
    /// scores as [`Ranking::try_add`] does.
    pub fn try_add_result(
        &mut self,
        name: impl Into<String>,
        result: TgiResult,
    ) -> Result<(), TgiError> {
        self.insert(ranked_result(name, result))
    }

    /// The ranked entries, greenest first.
    pub fn entries(&self) -> &[RankedSystem] {
        &self.entries
    }

    /// Number of ranked systems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// 1-based rank of a system by name.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name).map(|i| i + 1)
    }

    /// The top-ranked (greenest) system.
    pub fn greenest(&self) -> Option<&RankedSystem> {
        self.entries.first()
    }
}

/// A decomposition's ranking entry, scored by its TGI value.
fn ranked_result(name: impl Into<String>, result: TgiResult) -> RankedSystem {
    RankedSystem { name: name.into(), tgi: result.value(), detail: Some(result) }
}

/// The ranking order: descending TGI, ties broken by ascending name.
/// Scores are finite (checked on the way in).
fn order(a: &RankedSystem, b: &RankedSystem) -> Ordering {
    b.tgi.partial_cmp(&a.tgi).expect("TGI values are finite").then_with(|| a.name.cmp(&b.name))
}

impl fmt::Display for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>4}  {:<24} {:>10}", "Rank", "System", "TGI")?;
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(f, "{:>4}  {:<24} {:>10.4}", i + 1, e.name, e.tgi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_descending() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        r.add("ember", 1.2);
        r.add("ash", 0.9);
        assert_eq!(r.rank_of("ember"), Some(1));
        assert_eq!(r.rank_of("ash"), Some(2));
        assert_eq!(r.rank_of("fire"), Some(3));
        assert_eq!(r.greenest().unwrap().name, "ember");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ties_break_by_name() {
        let mut r = Ranking::new();
        r.add("zeta", 1.0);
        r.add("alpha", 1.0);
        assert_eq!(r.rank_of("alpha"), Some(1));
        assert_eq!(r.rank_of("zeta"), Some(2));
    }

    #[test]
    fn unknown_system_has_no_rank() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        assert_eq!(r.rank_of("unknown"), None);
    }

    #[test]
    fn empty_ranking() {
        let r = Ranking::new();
        assert!(r.is_empty());
        assert!(r.greenest().is_none());
    }

    #[test]
    fn display_contains_all_entries() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        r.add("ember", 1.2);
        let out = r.to_string();
        assert!(out.contains("fire"));
        assert!(out.contains("ember"));
        assert!(out.contains("Rank"));
    }

    #[test]
    fn duplicate_tgi_values_rank_in_stable_name_order() {
        // A synthetic fleet can produce exact TGI collisions; the order
        // must be deterministic (by id) no matter the insertion order.
        let mut fwd = Ranking::new();
        let mut rev = Ranking::new();
        let systems = ["g500-003", "g500-001", "g500-002"];
        for name in systems {
            fwd.add(name, 0.75);
        }
        for name in systems.iter().rev() {
            rev.add(*name, 0.75);
        }
        let order: Vec<&str> = fwd.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, vec!["g500-001", "g500-002", "g500-003"]);
        assert_eq!(fwd, rev, "insertion order must not matter");
        // Duplicates interleaved with distinct values keep descending TGI
        // as the primary key.
        fwd.add("g500-000", 0.9);
        assert_eq!(fwd.rank_of("g500-000"), Some(1));
        assert_eq!(fwd.rank_of("g500-001"), Some(2));
    }

    #[test]
    fn single_system_fleet_ranks_itself() {
        let mut r = Ranking::new();
        r.add("only", 0.42);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rank_of("only"), Some(1));
        assert_eq!(r.greenest().unwrap().name, "only");
        assert_eq!(r.greenest().unwrap().tgi, 0.42);
    }

    #[test]
    fn non_finite_scores_are_rejected() {
        let mut r = Ranking::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = r.try_add("broken", bad).unwrap_err();
            assert!(matches!(err, TgiError::NotFinite { quantity: "ranking score" }));
        }
        assert!(r.is_empty(), "rejected scores must not be inserted");
        r.try_add("fine", 1.0).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "TGI values are finite")]
    fn add_panics_on_nan() {
        Ranking::new().add("broken", f64::NAN);
    }

    #[test]
    fn bulk_build_equals_incremental_build_including_ties() {
        let scores: Vec<(String, f64)> = (0..200)
            .map(|i| (format!("sys-{:03}", (i * 37) % 200), ((i * 7) % 13) as f64 * 0.125))
            .chain([("dup".to_string(), 0.5), ("dup".to_string(), 0.5)])
            .collect();
        let mut incremental = Ranking::new();
        for (name, tgi) in &scores {
            incremental.try_add(name.clone(), *tgi).unwrap();
        }
        let bulk = Ranking::try_from_scores(scores.iter().cloned()).unwrap();
        assert_eq!(bulk, incremental);
        let tgis: Vec<f64> = bulk.entries().iter().map(|e| e.tgi).collect();
        assert!(tgis.windows(2).all(|w| w[0] >= w[1]));
        // Ties (12+ systems share each score) order by name.
        assert!(bulk.entries().windows(2).all(|w| w[0].tgi > w[1].tgi || w[0].name <= w[1].name));
    }

    #[test]
    fn bulk_build_rejects_a_non_finite_score_whole() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Ranking::try_from_scores([("a", 1.0), ("broken", bad), ("b", 2.0)]);
            assert!(matches!(err, Err(TgiError::NotFinite { quantity: "ranking score" })));
        }
        assert!(Ranking::try_from_scores(Vec::<(String, f64)>::new()).unwrap().is_empty());
    }

    #[test]
    fn insertion_keeps_order_incrementally() {
        let mut r = Ranking::new();
        for (name, v) in [("a", 0.1), ("b", 0.5), ("c", 0.3), ("d", 0.9)] {
            r.add(name, v);
            // After every insertion, order is non-increasing.
            let tgis: Vec<f64> = r.entries().iter().map(|e| e.tgi).collect();
            assert!(tgis.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}
