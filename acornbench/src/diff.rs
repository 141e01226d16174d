//! The layer diff: two traced runs compared row by row, so a change can
//! show in which layer its time or count moved. Every delta is printed
//! with its base and as a ratio to it.

use crate::report::Metric;

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value in the base run (`None` if the row is new).
    pub base: Option<f64>,
    /// Value in the new run (`None` if the row is gone).
    pub new: Option<f64>,
}

impl DiffRow {
    /// `new - base`, when both exist.
    pub fn delta(&self) -> Option<f64> {
        Some(self.new? - self.base?)
    }

    /// `new / base`, when both exist and the base is non-zero.
    pub fn ratio(&self) -> Option<f64> {
        let base = self.base?;
        (base != 0.0).then(|| self.new.map(|n| n / base)).flatten()
    }
}

/// Pairs rows by name, in the base run's order, then rows only the new
/// run has.
pub fn diff(base: &[Metric], new: &[Metric]) -> Vec<DiffRow> {
    let mut out: Vec<DiffRow> = base
        .iter()
        .map(|b| DiffRow {
            name: b.name.clone(),
            unit: b.unit.clone(),
            base: Some(b.value),
            new: new.iter().find(|n| n.name == b.name).map(|n| n.value),
        })
        .collect();
    for n in new {
        if !base.iter().any(|b| b.name == n.name) {
            out.push(DiffRow {
                name: n.name.clone(),
                unit: n.unit.clone(),
                base: None,
                new: Some(n.value),
            });
        }
    }
    out
}

fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.6}"))
}

/// The diff as an aligned text table.
pub fn render(rows: &[DiffRow]) -> String {
    let mut out = format!(
        "{:<34} {:>6} {:>16} {:>16} {:>16} {:>9}\n",
        "metric", "unit", "base", "new", "delta", "new/base"
    );
    for r in rows {
        let ratio = r
            .ratio()
            .map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
        out.push_str(&format!(
            "{:<34} {:>6} {:>16} {:>16} {:>16} {:>9}\n",
            r.name,
            r.unit,
            cell(r.base),
            cell(r.new),
            cell(r.delta()),
            ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pair_by_name_with_base_and_ratio() {
        let base = vec![
            Metric::new("events.kernel_s", "s", 0.5),
            Metric::new("phy.estimate_us", "us", 100.0),
            Metric::new("ctrl.msgs.expired", "count", 0.0),
        ];
        let new = vec![
            Metric::new("phy.estimate_us", "us", 25.0),
            Metric::new("events.kernel_s", "s", 0.5),
            Metric::new("ctrl.msgs.expired", "count", 2.0),
            Metric::new("model.build_ms", "ms", 3.0),
        ];
        let d = diff(&base, &new);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].ratio(), Some(1.0));
        assert_eq!(d[1].delta(), Some(-75.0));
        assert_eq!(d[1].ratio(), Some(0.25));
        assert_eq!(d[2].delta(), Some(2.0));
        assert_eq!(d[2].ratio(), None, "a zero base has no ratio");
        assert_eq!(d[3].base, None);
        assert_eq!(d[3].delta(), None);
        let table = render(&d);
        assert!(table.contains("0.2500"), "{table}");
    }

    #[test]
    fn a_row_missing_from_the_new_run_is_kept() {
        let d = diff(&[Metric::new("a", "s", 1.0)], &[]);
        assert_eq!(d[0].new, None);
        assert_eq!(d[0].ratio(), None);
    }
}
