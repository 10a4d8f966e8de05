//! The `repro tune` gate: the design-space autotuner CLI wrapper and
//! the golden-frontier regression check.
//!
//! `repro tune` runs the `timber-tune` Pareto search and prints (or
//! writes with `--out`) the versioned frontier JSON. The document is a
//! pure function of `(seed, budget, tolerance, sabotage)` — never of
//! `--threads` — so CI byte-compares it against the committed
//! `FRONTIER_tune.json` golden: `--frontier-check FILE` re-runs the
//! search with the spec *recorded inside the golden file* and fails
//! when a single byte drifts or the run's self-validation (frontier
//! minimality, paper-anchor band membership) reports a violation.

use serde_json::Value;
use timber_tune::{report_json, tune, TuneReport, TuneSpec};

/// Runs the search and serialises the frontier document (with a
/// trailing newline, the on-disk golden format).
pub fn tune_document(spec: &TuneSpec) -> (TuneReport, String) {
    let report = tune(spec);
    let doc = serde_json::to_string_pretty(&report_json(&report)).expect("report serialises");
    (report, format!("{doc}\n"))
}

/// Outcome of a `--frontier-check` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontierCheck {
    /// Recomputation matched the golden byte-for-byte and validated.
    Match,
    /// The recomputed document differs; carries the first differing
    /// line number and both lines.
    Drift {
        /// 1-based line of the first difference.
        line: usize,
        /// That line in the golden document.
        golden: String,
        /// That line in the fresh document.
        fresh: String,
    },
    /// The fresh run failed its own validation; carries the messages.
    Invalid(Vec<String>),
}

/// Recomputes the frontier with the spec recorded in `golden` and
/// compares byte-for-byte. `threads` only parallelises the
/// recomputation. Returns an error string for unusable golden
/// documents (usage errors, exit 2 at the CLI).
pub fn frontier_check(golden: &str, threads: usize) -> Result<FrontierCheck, String> {
    let doc: Value = serde_json::from_str(golden.trim_end())
        .map_err(|e| format!("golden frontier is not valid JSON: {e:?}"))?;
    let field = |name: &str| -> Result<&Value, String> {
        doc.get(name)
            .ok_or_else(|| format!("golden frontier is missing {name:?}"))
    };
    let spec = TuneSpec {
        seed: field("seed")?
            .as_u64()
            .ok_or_else(|| "golden seed is not a number".to_owned())?,
        budget: field("budget")?
            .as_u64()
            .ok_or_else(|| "golden budget is not a number".to_owned())? as usize,
        tolerance: field("tolerance")?
            .as_f64()
            .ok_or_else(|| "golden tolerance is not a number".to_owned())?,
        sabotage: false,
        threads,
    };
    let (report, fresh) = tune_document(&spec);
    if !report.pass() {
        return Ok(FrontierCheck::Invalid(report.violations()));
    }
    if fresh == golden {
        return Ok(FrontierCheck::Match);
    }
    let (line, (g, f)) = golden
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(fresh.lines().map(Some).chain(std::iter::repeat(None)))
        .take_while(|(g, f)| g.is_some() || f.is_some())
        .enumerate()
        .find(|(_, (g, f))| g != f)
        .map(|(i, (g, f))| (i + 1, (g, f)))
        .unwrap_or((0, (None, None)));
    Ok(FrontierCheck::Drift {
        line,
        golden: g.unwrap_or("<end of file>").to_owned(),
        fresh: f.unwrap_or("<end of file>").to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TuneSpec {
        TuneSpec {
            budget: 6,
            threads: 1,
            ..TuneSpec::default()
        }
    }

    #[test]
    fn document_round_trips_through_frontier_check() {
        let (_, doc) = tune_document(&spec());
        assert_eq!(frontier_check(&doc, 1), Ok(FrontierCheck::Match));
    }

    #[test]
    fn drift_reports_the_first_differing_line() {
        let (_, doc) = tune_document(&spec());
        let tampered = doc.replace("\"budget\": 6", "\"budget\": 5");
        match frontier_check(&tampered, 1) {
            Ok(FrontierCheck::Drift { line, .. }) => assert!(line > 0),
            other => panic!("expected drift, got {other:?}"),
        }
    }

    #[test]
    fn garbage_golden_is_a_usage_error() {
        assert!(frontier_check("not json", 1).is_err());
        assert!(frontier_check("{}", 1).is_err());
    }
}
