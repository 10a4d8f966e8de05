//! Summary statistics, the host fingerprint, and the result record.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::metrics::unit_of;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registry name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The fingerprint every result carries: results are comparable only
/// between identical fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git:<sha>` when run from a git checkout, else `tree:<digest>` of
    /// the sources the benchmark builds.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the host. `root` is the checkout root.
    pub fn probe(root: &Path) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            nproc: threads(),
            cpu,
            rustc: command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".to_owned()),
            commit: command_line("git", &["rev-parse", "HEAD"], root)
                .map(|sha| format!("git:{sha}"))
                .unwrap_or_else(|| format!("tree:{:016x}", tree_digest(root))),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }

    /// Parses [`Fingerprint::json`] output.
    pub fn from_json(v: &serde_json::Value) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: v.get("nproc")?.as_u64()? as usize,
            cpu: v.get("cpu")?.as_str()?.to_owned(),
            rustc: v.get("rustc")?.as_str()?.to_owned(),
            commit: v.get("commit")?.as_str()?.to_owned(),
        })
    }

    /// The first field on which two fingerprints differ.
    pub fn difference(&self, other: &Fingerprint) -> Option<String> {
        let fields = [
            ("nproc", self.nproc.to_string(), other.nproc.to_string()),
            ("cpu", self.cpu.clone(), other.cpu.clone()),
            ("rustc", self.rustc.clone(), other.rustc.clone()),
            ("commit", self.commit.clone(), other.commit.clone()),
        ];
        fields
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(f, a, b)| format!("{f}: {a:?} vs {b:?}"))
    }
}

/// Worker threads for the engine and the tuner: every logical CPU.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first stdout line of a command run in `dir`, waited for.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_owned())
}

/// An FNV-1a digest over the path and bytes of every manifest and Rust
/// source under `crates/`, `vendor/` and `perfbench/`, in sorted order.
fn tree_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "perfbench"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = crate::gen::FNV_START;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        h = crate::gen::fnv1a(h, rel.as_bytes());
        h = crate::gen::fnv1a(h, &std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// The set-up repetitions summarised: count, fastest and median.
pub fn setup_note(times: &[f64]) -> String {
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    format!(
        "setup: {} repetitions, fastest {:.3e} s, median {:.3e} s",
        times.len(),
        fastest,
        median(times)
    )
}

/// `(steal, total)` CPU jiffies so far, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The quieter half of a run's measurement windows: the indices of the
/// windows whose host steal share is at most the median share. Steal on
/// a shared host comes in bursts of a second or so; the figures use
/// these windows, so a burst in part of a run does not set them.
pub fn quiet_half(steal: &[f64]) -> Vec<usize> {
    let cut = median(steal);
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// `ns` less the share `steal` the host took: the time the host gave
/// this machine. A window's rates and latencies count this time, so a
/// busy neighbour on the host moves them less.
pub fn net_of_steal(ns: u64, steal: f64) -> u64 {
    (ns as f64 * (1.0 - steal.clamp(0.0, 0.9))).round() as u64
}

/// Steal share between two [`cpu_jiffies`] snapshots.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_string()
}

/// A number as JSON (non-finite values, which the registry never
/// produces on a passing run, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Units of work attempted (requests, or tune candidates).
    pub attempted: u64,
    /// Attempted units that were not `ok` or failed a check.
    pub failed: u64,
    /// What `attempted` counts.
    pub base: &'static str,
    /// Failed correctness checks, described.
    pub check_failures: Vec<String>,
    /// Reported metrics, in registry order.
    pub metrics: Vec<Metric>,
    /// Extra figures printed for people, not part of the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every correctness check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// `failed / attempted`.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let unit = unit_of(&metric.name).unwrap_or("count");
            let _ = write!(
                m,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&metric.name),
                json_num(metric.value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The full record `--out` writes: the result plus fingerprint,
    /// sample counts and the error base.
    pub fn record(&self, fp: &Fingerprint) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(&metric.name),
                json_num(metric.value),
                json_str(unit_of(&metric.name).unwrap_or("count")),
                metric.samples
            );
        }
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"fingerprint\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"error_base\":{},\"error_frac\":{},\"metrics\":{{{m}}}}}\n",
            json_str(&self.workload),
            self.seed,
            self.trace,
            fp.json(),
            self.correct(),
            self.attempted,
            self.failed,
            json_str(self.base),
            json_num(self.error_frac()),
        )
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then the error fraction with its base, then the notes.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let map = match crate::metrics::layer(&m.name) {
                Some(l) if m.samples == 0 => {
                    format!("  (not reached; moves {} on {})", l.moves, l.on.join(","))
                }
                Some(l) => format!("  -> {} on {}", l.moves, l.on.join(",")),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:<36} {:>14.6} {:<9} n={}{map}",
                m.name,
                m.value,
                unit_of(&m.name).unwrap_or("count"),
                m.samples
            );
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>14.6} {:<9} n={} ({} {} failed)",
            "error_frac",
            self.error_frac(),
            "ratio",
            self.attempted,
            self.failed,
            self.base
        );
        for c in &self.check_failures {
            let _ = writeln!(out, "  CHECK FAILED: {c}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }
}

/// Compares two `--out` records. Refuses (Err) when their fingerprints
/// or workloads differ.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let parse =
        |t: &str| serde_json::from_str(t.trim()).map_err(|e| format!("not a result record: {e}"));
    let (a, b) = (parse(a)?, parse(b)?);
    let fp = |v: &serde_json::Value| {
        v.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| "record has no fingerprint".to_owned())
    };
    if let Some(diff) = fp(&a)?.difference(&fp(&b)?) {
        return Err(format!("refusing to compare: fingerprints differ ({diff})"));
    }
    let field =
        |v: &serde_json::Value, k: &str| v.get(k).map(|x| x.to_string()).unwrap_or_default();
    if field(&a, "workload") != field(&b, "workload") || field(&a, "trace") != field(&b, "trace") {
        return Err("refusing to compare: different workloads or trace modes".to_owned());
    }
    let metrics = |v: &serde_json::Value| -> Vec<(String, f64)> {
        match v.get("metrics") {
            Some(serde_json::Value::Object(fields)) => fields
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mb = metrics(&b);
    let mut out = format!("workload {}\n", field(&a, "workload"));
    for (name, va) in metrics(&a) {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| *n == name) {
            let change = if va != 0.0 { (vb - va) / va } else { 0.0 };
            let _ = writeln!(
                out,
                "  {name:<36} {va:>14.6} -> {vb:>14.6}  {:+.2}%",
                change * 100.0
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_of_steal_takes_out_the_stolen_share() {
        assert_eq!(net_of_steal(1000, 0.0), 1000);
        assert_eq!(net_of_steal(1000, 0.25), 750);
        assert_eq!(net_of_steal(1000, 1.5), 100);
    }

    #[test]
    fn quiet_half_keeps_the_low_steal_windows() {
        assert_eq!(quiet_half(&[0.1, 0.0, 0.3, 0.02]), vec![1, 3]);
        assert_eq!(quiet_half(&[0.05]), vec![0]);
        assert_eq!(quiet_half(&[0.0, 0.0, 0.0]), vec![0, 1, 2]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn compare_refuses_different_fingerprints() {
        let fp = Fingerprint {
            nproc: 2,
            cpu: "x".into(),
            rustc: "rustc 1".into(),
            commit: "git:a".into(),
        };
        let r = RunResult {
            workload: "zipf-open".into(),
            seed: 1,
            trace: false,
            attempted: 10,
            failed: 0,
            base: "requests",
            check_failures: vec![],
            metrics: vec![Metric {
                name: "throughput_rps".into(),
                value: 100.0,
                samples: 3,
            }],
            notes: vec![],
        };
        let a = r.record(&fp);
        let mut faster = r.clone();
        faster.metrics[0].value = 110.0;
        let out = compare(&a, &faster.record(&fp)).expect("same host compares");
        assert!(out.contains("+10.00%"), "{out}");
        let other = Fingerprint {
            nproc: 4,
            ..fp.clone()
        };
        let err = compare(&a, &r.record(&other)).unwrap_err();
        assert!(err.contains("nproc"), "{err}");
        assert!(r
            .line()
            .starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
    }
}
