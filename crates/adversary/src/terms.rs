//! Hijacker search terms (Table 3).
//!
//! "We found out that hijackers mainly look for financial data …,
//! linked account credentials …, and personal material that might be
//! sold or used for blackmail." Table 3 gives the top terms per
//! category with frequencies; searches are "overwhelmingly for
//! financial data". The printed table is partially garbled in the
//! source text; the frequencies below follow its unambiguous structure
//! (finance ≫ account ≈ content, `wire transfer` at 14.4% on top) and
//! are documented in DESIGN.md.

use mhw_simclock::SimRng;
use mhw_types::Language;

/// The three Table 3 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermCategory {
    /// Financial standing: wire transfers, bank statements.
    Finance,
    /// Credentials for other accounts the victim holds.
    Account,
    /// Personal content usable for extortion.
    Content,
}

/// Finance terms with Table 3 weights. Non-English entries reflect the
/// paper's observation that "some searches were performed in Spanish
/// and Chinese".
const FINANCE: [(&str, f64); 9] = [
    ("wire transfer", 14.4),
    ("bank transfer", 11.9),
    ("bank", 6.2),
    ("transfer", 5.2),
    ("wire", 4.7),
    ("transferencia", 4.6),
    ("investment", 3.4),
    ("banco", 3.0),
    ("账单", 1.9),
];

const ACCOUNT: [(&str, f64); 9] = [
    ("password", 0.6),
    ("amazon", 0.4),
    ("dropbox", 0.3),
    ("paypal", 0.3),
    ("match", 0.1),
    ("ftp", 0.1),
    ("facebook", 0.1),
    ("skype", 0.1),
    ("username", 0.1),
];

const CONTENT: [(&str, f64); 9] = [
    ("jpg", 0.2),
    ("mov", 0.2),
    ("mp4", 0.2),
    ("3gp", 0.1),
    ("passport", 0.1),
    ("sex", 0.1),
    ("filename:(jpg or jpeg or png)", 0.1),
    ("is:starred", 0.1),
    ("zip", 0.1),
];

/// The search-term sampler.
#[derive(Debug, Clone, Default)]
pub struct SearchTermModel;

impl SearchTermModel {
    /// The Table 3 sampler (stateless).
    pub fn new() -> Self {
        SearchTermModel
    }

    /// All `(term, weight, category)` triples.
    pub fn all_terms(&self) -> Vec<(&'static str, f64, TermCategory)> {
        FINANCE
            .iter()
            .map(|(t, w)| (*t, *w, TermCategory::Finance))
            .chain(ACCOUNT.iter().map(|(t, w)| (*t, *w, TermCategory::Account)))
            .chain(CONTENT.iter().map(|(t, w)| (*t, *w, TermCategory::Content)))
            .collect()
    }

    /// Draw one search term. `language` biases towards the crew's
    /// working language: Spanish-speaking crews prefer `transferencia`
    /// and `banco`, Chinese-speaking crews `账单` (§5.2/§7 consistency).
    pub fn sample(&self, language: Language, rng: &mut SimRng) -> &'static str {
        let terms = self.all_terms();
        let weights: Vec<f64> = terms
            .iter()
            .map(|(t, w, _)| {
                let is_spanish = matches!(*t, "transferencia" | "banco");
                let is_chinese = *t == "账单";
                let boost = match language {
                    Language::Spanish if is_spanish => 8.0,
                    Language::Chinese if is_chinese => 20.0,
                    // Non-matching language: still possible (shared
                    // tooling, §5.5), but rare.
                    Language::Spanish | Language::Chinese => 1.0,
                    _ if is_spanish || is_chinese => 0.15,
                    _ => 1.0,
                };
                w * boost
            })
            .collect();
        let i = rng.weighted_index(&weights).expect("weights positive");
        terms[i].0
    }

    /// Category of a term (None if unknown).
    pub fn category_of(&self, term: &str) -> Option<TermCategory> {
        self.all_terms()
            .into_iter()
            .find(|(t, _, _)| *t == term)
            .map(|(_, _, c)| c)
    }

    /// Expected fraction of finance-category draws for English crews —
    /// used by calibration tests (the paper: searches are
    /// "overwhelmingly for financial data").
    pub fn finance_mass_fraction(&self) -> f64 {
        let fin: f64 = FINANCE.iter().map(|(_, w)| w).sum();
        let all: f64 = self.all_terms().iter().map(|(_, w, _)| w).sum();
        fin / all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finance_dominates() {
        let m = SearchTermModel::new();
        assert!(m.finance_mass_fraction() > 0.9, "{}", m.finance_mass_fraction());
    }

    #[test]
    fn top_term_is_wire_transfer() {
        let m = SearchTermModel::new();
        let mut rng = SimRng::from_seed(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(m.sample(Language::English, &mut rng)).or_insert(0usize) += 1;
        }
        let top = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_eq!(*top.0, "wire transfer");
    }

    #[test]
    fn spanish_crews_prefer_spanish_terms() {
        let m = SearchTermModel::new();
        let mut rng = SimRng::from_seed(2);
        let n = 20_000;
        let spanish = (0..n)
            .filter(|_| {
                matches!(m.sample(Language::Spanish, &mut rng), "transferencia" | "banco")
            })
            .count() as f64
            / n as f64;
        let mut rng2 = SimRng::from_seed(3);
        let english_spanish = (0..n)
            .filter(|_| {
                matches!(m.sample(Language::English, &mut rng2), "transferencia" | "banco")
            })
            .count() as f64
            / n as f64;
        assert!(spanish > 0.35, "spanish crews use spanish terms: {spanish}");
        assert!(english_spanish < 0.05, "english crews rarely do: {english_spanish}");
    }

    #[test]
    fn chinese_crews_search_zhangdan() {
        let m = SearchTermModel::new();
        let mut rng = SimRng::from_seed(4);
        let n = 20_000;
        let zh = (0..n)
            .filter(|_| m.sample(Language::Chinese, &mut rng) == "账单")
            .count() as f64
            / n as f64;
        assert!(zh > 0.25, "chinese crews search 账单: {zh}");
    }

    #[test]
    fn categories_resolve() {
        let m = SearchTermModel::new();
        assert_eq!(m.category_of("wire transfer"), Some(TermCategory::Finance));
        assert_eq!(m.category_of("password"), Some(TermCategory::Account));
        assert_eq!(m.category_of("is:starred"), Some(TermCategory::Content));
        assert_eq!(m.category_of("lunch"), None);
    }

    #[test]
    fn table3_has_27_terms() {
        assert_eq!(SearchTermModel::new().all_terms().len(), 27);
    }
}
