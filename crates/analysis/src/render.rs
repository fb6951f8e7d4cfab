//! Plain-text rendering and paper-vs-measured comparisons.

use crate::breakdown::Breakdown;

/// One paper-vs-measured row for EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// E.g. "Fig 7: decoys accessed within 30 min".
    pub metric: String,
    /// The paper's value, as printed there.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the shape/band matches (judged by the experiment's own
    /// tolerance, recorded explicitly for honesty).
    pub matches: bool,
    /// Free-form note (tolerance used, caveats).
    pub note: String,
}

impl Comparison {
    /// Assemble a row; `matches` is the experiment's own judgement.
    pub fn new(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        matches: bool,
        note: impl Into<String>,
    ) -> Self {
        Comparison {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            matches,
            note: note.into(),
        }
    }
}

/// A titled group of comparisons (one per experiment).
#[derive(Debug, Clone, Default)]
pub struct ComparisonTable {
    /// Section heading (the experiment's name).
    pub title: String,
    /// Paper-vs-measured rows in presentation order.
    pub rows: Vec<Comparison>,
}

impl ComparisonTable {
    /// An empty table with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        ComparisonTable { title: title.into(), rows: Vec::new() }
    }

    /// Append a comparison row.
    pub fn push(&mut self, row: Comparison) {
        self.rows.push(row);
    }

    /// Render as a GitHub-flavoured markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| Metric | Paper | Measured | Match | Note |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                escape(&r.metric),
                escape(&r.paper),
                escape(&r.measured),
                if r.matches { "✓" } else { "✗" },
                escape(&r.note),
            ));
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('|', "\\|")
}

/// Render a breakdown as a right-aligned text bar chart (the Figure 3 /
/// 10 / 12 style).
pub fn bar_chart(b: &Breakdown, width: usize) -> String {
    let rows = b.rows();
    let max = rows.first().map(|r| r.1).unwrap_or(0).max(1);
    let label_w = rows.iter().map(|r| r.0.chars().count()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, count, frac) in rows {
        let bar_len = ((count as f64 / max as f64) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$}  {bar:<width$}  {count:>7} ({pct:5.1}%)\n",
            bar = "#".repeat(bar_len),
            pct = frac * 100.0,
        ));
    }
    out
}

/// Render `(label, value)` rows as a simple aligned two-column table.
pub fn markdown_table(headers: (&str, &str), rows: &[(String, String)]) -> String {
    let mut out = format!("| {} | {} |\n|---|---|\n", headers.0, headers.1);
    for (a, b) in rows {
        out.push_str(&format!("| {} | {} |\n", escape(a), escape(b)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_markdown() {
        let mut t = ComparisonTable::new("Figure 7");
        t.push(Comparison::new("≤30 min", "20%", "21.3%", true, "±5pp"));
        t.push(Comparison::new("≤7 h", "50%", "48.9%", true, "±5pp"));
        let md = t.to_markdown();
        assert!(md.contains("### Figure 7"));
        assert!(md.contains("| ≤30 min | 20% | 21.3% | ✓ | ±5pp |"));
    }

    #[test]
    fn pipes_are_escaped() {
        let mut t = ComparisonTable::new("T");
        t.push(Comparison::new("a|b", "1", "2", true, "n|m"));
        let md = t.to_markdown();
        assert!(md.contains("a\\|b"));
        assert!(md.contains("n\\|m"));
    }

    #[test]
    fn bar_chart_scales() {
        let mut b = Breakdown::new();
        b.add_n("big", 100);
        b.add_n("small", 10);
        let chart = bar_chart(&b, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("big"));
        let big_bars = lines[0].matches('#').count();
        let small_bars = lines[1].matches('#').count();
        assert_eq!(big_bars, 20);
        assert_eq!(small_bars, 2);
        assert!(lines[0].contains("100"));
        assert!(lines[1].contains("10.0%") || lines[1].contains("9.1%"));
    }

    #[test]
    fn empty_bar_chart() {
        let b = Breakdown::new();
        assert_eq!(bar_chart(&b, 10), "");
    }

    #[test]
    fn simple_markdown_table() {
        let rows = vec![("SMS".to_string(), "80.9%".to_string())];
        let md = markdown_table(("Method", "Success"), &rows);
        assert!(md.contains("| Method | Success |"));
        assert!(md.contains("| SMS | 80.9% |"));
    }
}
