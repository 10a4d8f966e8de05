//! JSONL request specs and their canonical form.
//!
//! One request is one single-line JSON object. Evaluation requests
//! name a design, a scheme, a schedule and a trial budget:
//!
//! ```json
//! {"op":"eval","id":3,"design":"rca16","scheme":"timber-ff",
//!  "checking_pct":24.0,"k_tb":1,"k_ed":2,"trials":2,"cycles":400,
//!  "seed":7,"storm":"droop-train"}
//! ```
//!
//! Every field except `design` has a default; unknown or duplicated
//! fields are deterministic errors (strictness is what lets the
//! canonical form be injective). `{"op":"stats"}` returns the service
//! counters, `{"op":"shutdown"}` ends a daemon session.
//!
//! # Canonicalization
//!
//! [`EvalSpec::canonical`] renders the spec as a fixed-order,
//! fully-defaulted string: JSON field order, whitespace, and numeric
//! spellings (`24` vs `24.0`) all collapse to one representative, and
//! the float is rendered by its IEEE-754 bit pattern so no two
//! distinct values share a spelling. The content hash of that string
//! is the cache key; the request `id` is deliberately excluded so
//! identical work from different requests shares one cache entry.

use serde_json::{Field, ObjectReader};
use timber_resilience::StormScenario;
use timber_schemes::SchemeId;

use crate::key::{content_hash, CacheKey};

/// Every netlist the service can evaluate: the lint gate's shipped
/// generator set, plus the `poison` diagnostic design whose compile
/// step panics by contract (it exercises the quarantine path end to
/// end, like `repro soak --inject-panic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignId {
    /// 16-bit ripple-carry adder.
    Rca16,
    /// 16-bit Kogge–Stone adder.
    Ks16,
    /// 8-bit array multiplier.
    Mul8,
    /// 8-bit ALU.
    Alu8,
    /// Seeded random DAG.
    RandomDag,
    /// Four-stage pipelined datapath.
    Datapath,
    /// Structural processor proxy (per-bank STA stage profiles).
    Proc,
    /// Diagnostic: compilation panics, exercising quarantine.
    Poison,
}

impl DesignId {
    /// Every design, in canonical order.
    pub const ALL: [DesignId; 8] = [
        DesignId::Rca16,
        DesignId::Ks16,
        DesignId::Mul8,
        DesignId::Alu8,
        DesignId::RandomDag,
        DesignId::Datapath,
        DesignId::Proc,
        DesignId::Poison,
    ];

    /// The evaluable designs (everything except `poison`).
    pub const EVALUABLE: [DesignId; 7] = [
        DesignId::Rca16,
        DesignId::Ks16,
        DesignId::Mul8,
        DesignId::Alu8,
        DesignId::RandomDag,
        DesignId::Datapath,
        DesignId::Proc,
    ];

    /// Stable machine-readable name (request field value).
    pub fn name(self) -> &'static str {
        match self {
            DesignId::Rca16 => "rca16",
            DesignId::Ks16 => "ks16",
            DesignId::Mul8 => "mul8",
            DesignId::Alu8 => "alu8",
            DesignId::RandomDag => "random_dag",
            DesignId::Datapath => "datapath",
            DesignId::Proc => "proc",
            DesignId::Poison => "poison",
        }
    }

    /// Resolves a request field value back to its identifier.
    pub fn from_name(name: &str) -> Option<DesignId> {
        DesignId::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// Hard ceilings on a single request's work, so one request cannot
/// stall the batch executor into its watchdog.
pub const MAX_TRIALS: usize = 64;
/// Upper bound on simulated cycles per trial.
pub const MAX_CYCLES: u64 = 1_000_000;

/// A fully-defaulted evaluation request (minus the `id`, which rides
/// beside it in [`Request::Eval`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSpec {
    /// Which netlist to compile and evaluate.
    pub design: DesignId,
    /// Which sequential scheme from the registry to run.
    pub scheme: SchemeId,
    /// Stress environment: `None` is the nominal droop+jitter stress,
    /// `Some` is one of the soak storm scenarios.
    pub storm: Option<StormScenario>,
    /// Checking period as a percentage of the clock period.
    pub checking_pct: f64,
    /// Time-borrowing intervals.
    pub k_tb: u8,
    /// Error-detection intervals.
    pub k_ed: u8,
    /// Independent Monte-Carlo trials.
    pub trials: usize,
    /// Simulated cycles per trial.
    pub cycles: u64,
    /// Base seed; trial seeds derive via splitmix64.
    pub seed: u64,
}

impl EvalSpec {
    /// The defaults every omitted field assumes.
    pub fn defaults(design: DesignId) -> EvalSpec {
        EvalSpec {
            design,
            scheme: SchemeId::TimberFf,
            storm: None,
            checking_pct: 24.0,
            k_tb: 1,
            k_ed: 2,
            trials: 2,
            cycles: 400,
            seed: 7,
        }
    }

    /// Stable name of the storm axis (`"none"` for nominal stress).
    pub fn storm_name(&self) -> &'static str {
        self.storm.map_or("none", |s| s.name())
    }

    /// The canonical spec string the cache key digests: fixed field
    /// order, every field explicit, the float by bit pattern. Two
    /// specs canonicalize equal iff they are field-for-field equal.
    pub fn canonical(&self) -> String {
        self.canonical_form().as_str().to_owned()
    }

    /// Canonical form of the *design tier*: the subset of fields the
    /// compiled artifact (netlist + STA + snapped period + padding
    /// plan) depends on. Requests differing only in scheme, storm,
    /// trial budget or seed share one compiled design.
    pub fn design_canonical(&self) -> String {
        self.design_form().as_str().to_owned()
    }

    /// Content-addressed result-cache key.
    pub fn key(&self) -> CacheKey {
        content_hash(self.canonical_form().as_bytes())
    }

    /// Content-addressed design-cache key.
    pub fn design_key(&self) -> CacheKey {
        content_hash(self.design_form().as_bytes())
    }

    /// The one writer of [`EvalSpec::canonical`]'s format.
    fn canonical_form(&self) -> Canonical {
        let mut w = Canonical::new();
        w.push("timber-serve/v1;design=")
            .push(self.design.name())
            .push(";scheme=")
            .push(self.scheme.name())
            .push(";storm=")
            .push(self.storm_name())
            .push(";pct_bits=")
            .push_hex(self.checking_pct.to_bits())
            .push(";k_tb=")
            .push_decimal(u64::from(self.k_tb))
            .push(";k_ed=")
            .push_decimal(u64::from(self.k_ed))
            .push(";trials=")
            .push_decimal(self.trials as u64)
            .push(";cycles=")
            .push_decimal(self.cycles)
            .push(";seed=")
            .push_decimal(self.seed);
        w
    }

    /// The one writer of [`EvalSpec::design_canonical`]'s format.
    fn design_form(&self) -> Canonical {
        let mut w = Canonical::new();
        w.push("timber-serve-design/v1;design=")
            .push(self.design.name())
            .push(";pct_bits=")
            .push_hex(self.checking_pct.to_bits())
            .push(";k_tb=")
            .push_decimal(u64::from(self.k_tb))
            .push(";k_ed=")
            .push_decimal(u64::from(self.k_ed));
        w
    }
}

/// Room for the longest canonical form any spec can produce: every
/// name at its longest and every integer at its widest come to 207
/// bytes (pinned by a test).
const CANONICAL_CAPACITY: usize = 256;

/// A canonical form written into a fixed stack buffer, so a cache key
/// costs no heap allocation.
struct Canonical {
    buf: [u8; CANONICAL_CAPACITY],
    len: usize,
}

impl Canonical {
    fn new() -> Canonical {
        Canonical {
            buf: [0; CANONICAL_CAPACITY],
            len: 0,
        }
    }

    fn push(&mut self, s: &str) -> &mut Canonical {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        self
    }

    fn push_decimal(&mut self, v: u64) -> &mut Canonical {
        self.push(decimal(v, &mut [0; 20]))
    }

    /// `v` as 16 zero-padded lowercase hex digits.
    fn push_hex(&mut self, v: u64) -> &mut Canonical {
        for (i, b) in self.buf[self.len..self.len + 16].iter_mut().enumerate() {
            *b = b"0123456789abcdef"[((v >> (60 - 4 * i)) & 0xf) as usize];
        }
        self.len += 16;
        self
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("canonical forms are ASCII")
    }
}

/// `v` in decimal, written right-aligned into `buf`.
pub(crate) fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII")
}

/// Client-declared importance of an eval request. Only consulted when
/// the service governor has escalated to shed-low: low-priority cache
/// misses are shed first. Like `id`, it is a *service* attribute, not
/// part of the spec — two requests differing only in priority share
/// one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served at every level that admits misses (the default).
    #[default]
    High,
    /// First to be shed under load.
    Low,
}

impl Priority {
    /// Stable machine-readable name (request field value).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a spec (answered from cache when possible).
    Eval {
        /// Response-ordering id.
        id: u64,
        /// The fully-defaulted spec.
        spec: EvalSpec,
        /// Shedding priority (service attribute, not part of the spec).
        priority: Priority,
        /// Latency budget in milliseconds: a cache miss whose estimated
        /// evaluation cost exceeds it is rejected up front rather than
        /// admitted and finished late. `None` means no deadline.
        deadline_ms: Option<u64>,
    },
    /// Return the service telemetry counters.
    Stats {
        /// Response-ordering id.
        id: u64,
    },
    /// End the daemon session cleanly.
    Shutdown {
        /// Response-ordering id.
        id: u64,
    },
}

impl Request {
    /// The request's response-ordering id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Eval { id, .. } | Request::Stats { id } | Request::Shutdown { id } => *id,
        }
    }
}

/// The fields a request may carry. A field's discriminant is its bit
/// in [`Staged::seen`], the duplicate-field mask.
#[derive(Debug, Clone, Copy)]
enum Known {
    Op,
    Id,
    Design,
    Scheme,
    Storm,
    CheckingPct,
    KTb,
    KEd,
    Trials,
    Cycles,
    Seed,
    Priority,
    DeadlineMs,
}

impl Known {
    fn from_name(name: &str) -> Option<Known> {
        Some(match name {
            "op" => Known::Op,
            "id" => Known::Id,
            "design" => Known::Design,
            "scheme" => Known::Scheme,
            "storm" => Known::Storm,
            "checking_pct" => Known::CheckingPct,
            "k_tb" => Known::KTb,
            "k_ed" => Known::KEd,
            "trials" => Known::Trials,
            "cycles" => Known::Cycles,
            "seed" => Known::Seed,
            "priority" => Known::Priority,
            "deadline_ms" => Known::DeadlineMs,
            _ => return None,
        })
    }
}

fn field_u64(value: &Field<'_>, name: &str) -> Result<u64, String> {
    match value {
        Field::Number(n) => n.as_u64(),
        _ => None,
    }
    .ok_or_else(|| format!("field {name:?} must be a non-negative integer"))
}

fn field_f64(value: &Field<'_>, name: &str) -> Result<f64, String> {
    match value {
        Field::Number(n) => Ok(n.as_f64()),
        _ => Err(format!("field {name:?} must be a number")),
    }
}

fn field_str<'v>(value: &'v Field<'_>, name: &str) -> Result<&'v str, String> {
    match value {
        Field::Str(s) => Ok(s),
        _ => Err(format!("field {name:?} must be a string")),
    }
}

/// A request's fields as read so far, before the design (and thus the
/// default spec) is known.
#[derive(Default)]
struct Staged {
    /// One bit per [`Known`] field already read.
    seen: u16,
    op: Option<&'static str>,
    id: Option<u64>,
    design: Option<DesignId>,
    spec_touched: bool,
    priority: Priority,
    deadline_ms: Option<u64>,
    service_touched: bool,
    scheme: Option<SchemeId>,
    storm: Option<Option<StormScenario>>,
    checking_pct: Option<f64>,
    k_tb: Option<u8>,
    k_ed: Option<u8>,
    trials: Option<usize>,
    cycles: Option<u64>,
    seed: Option<u64>,
}

impl Staged {
    /// Validates and stages one field.
    fn apply(&mut self, name: &str, value: &Field<'_>) -> Result<(), String> {
        let known = Known::from_name(name).ok_or_else(|| format!("unknown field {name:?}"))?;
        let bit = 1u16 << known as u16;
        if self.seen & bit != 0 {
            return Err(format!("duplicate field {name:?}"));
        }
        match known {
            Known::Op => {
                self.op = Some(match field_str(value, "op")? {
                    "eval" => "eval",
                    "stats" => "stats",
                    "shutdown" => "shutdown",
                    other => {
                        return Err(format!(
                            "unknown op {other:?} (expected eval, stats or shutdown)"
                        ))
                    }
                });
            }
            Known::Id => self.id = Some(field_u64(value, "id")?),
            Known::Design => {
                let text = field_str(value, "design")?;
                self.design = Some(DesignId::from_name(text).ok_or_else(|| {
                    format!(
                        "unknown design {text:?} (expected one of: {})",
                        DesignId::ALL.map(|d| d.name()).join(", ")
                    )
                })?);
            }
            Known::Scheme => {
                let text = field_str(value, "scheme")?;
                self.scheme = Some(SchemeId::from_name(text).ok_or_else(|| {
                    format!(
                        "unknown scheme {text:?} (expected one of: {})",
                        SchemeId::ALL.map(|s| s.name()).join(", ")
                    )
                })?);
                self.spec_touched = true;
            }
            Known::Storm => {
                let text = field_str(value, "storm")?;
                self.storm = Some(if text == "none" {
                    None
                } else {
                    Some(StormScenario::parse(text).ok_or_else(|| {
                        format!(
                            "unknown storm {text:?} (expected none, {})",
                            StormScenario::ALL.map(|s| s.name()).join(", ")
                        )
                    })?)
                });
                self.spec_touched = true;
            }
            Known::CheckingPct => {
                let pct = field_f64(value, "checking_pct")?;
                if !pct.is_finite() || pct <= 0.0 || pct > 50.0 {
                    return Err(format!("checking_pct {pct} out of range (0, 50]"));
                }
                self.checking_pct = Some(pct);
                self.spec_touched = true;
            }
            Known::KTb => {
                let k = field_u64(value, "k_tb")?;
                if k > 8 {
                    return Err(format!("k_tb {k} out of range 0..=8"));
                }
                self.k_tb = Some(k as u8);
                self.spec_touched = true;
            }
            Known::KEd => {
                let k = field_u64(value, "k_ed")?;
                if !(1..=8).contains(&k) {
                    return Err(format!("k_ed {k} out of range 1..=8"));
                }
                self.k_ed = Some(k as u8);
                self.spec_touched = true;
            }
            Known::Trials => {
                let t = field_u64(value, "trials")? as usize;
                if !(1..=MAX_TRIALS).contains(&t) {
                    return Err(format!("trials {t} out of range 1..={MAX_TRIALS}"));
                }
                self.trials = Some(t);
                self.spec_touched = true;
            }
            Known::Cycles => {
                let c = field_u64(value, "cycles")?;
                if !(1..=MAX_CYCLES).contains(&c) {
                    return Err(format!("cycles {c} out of range 1..={MAX_CYCLES}"));
                }
                self.cycles = Some(c);
                self.spec_touched = true;
            }
            Known::Seed => {
                self.seed = Some(field_u64(value, "seed")?);
                self.spec_touched = true;
            }
            Known::Priority => {
                self.priority = match field_str(value, "priority")? {
                    "high" => Priority::High,
                    "low" => Priority::Low,
                    other => {
                        return Err(format!("unknown priority {other:?} (expected high or low)"))
                    }
                };
                self.service_touched = true;
            }
            Known::DeadlineMs => {
                let d = field_u64(value, "deadline_ms")?;
                if d == 0 {
                    return Err("deadline_ms must be at least 1".to_owned());
                }
                self.deadline_ms = Some(d);
                self.service_touched = true;
            }
        }
        self.seen |= bit;
        Ok(())
    }

    /// The request the staged fields describe.
    fn finish(self, default_id: u64) -> Result<Request, String> {
        let id = self.id.unwrap_or(default_id);
        match self.op.unwrap_or("eval") {
            op @ ("stats" | "shutdown") => {
                if self.design.is_some() || self.spec_touched || self.service_touched {
                    return Err(format!("op {op:?} takes no spec fields"));
                }
                Ok(if op == "stats" {
                    Request::Stats { id }
                } else {
                    Request::Shutdown { id }
                })
            }
            _ => {
                let design = self.design.ok_or("eval request needs a \"design\" field")?;
                let defaults = EvalSpec::defaults(design);
                Ok(Request::Eval {
                    id,
                    spec: EvalSpec {
                        design,
                        scheme: self.scheme.unwrap_or(defaults.scheme),
                        storm: self.storm.unwrap_or(defaults.storm),
                        checking_pct: self.checking_pct.unwrap_or(defaults.checking_pct),
                        k_tb: self.k_tb.unwrap_or(defaults.k_tb),
                        k_ed: self.k_ed.unwrap_or(defaults.k_ed),
                        trials: self.trials.unwrap_or(defaults.trials),
                        cycles: self.cycles.unwrap_or(defaults.cycles),
                        seed: self.seed.unwrap_or(defaults.seed),
                    },
                    priority: self.priority,
                    deadline_ms: self.deadline_ms,
                })
            }
        }
    }
}

/// Parses one request line. `default_id` is assigned when the line
/// carries no `id` field (the engine hands out its running sequence
/// number). Errors are deterministic single-line descriptions.
///
/// The line is read member by member, without building a JSON tree.
/// Errors rank as if the whole line were parsed first: a syntax error
/// anywhere in the line outranks a field error, and among field errors
/// the first field in line order wins.
pub fn parse_request(line: &str, default_id: u64) -> Result<Request, String> {
    let malformed = |e: serde_json::Error| format!("malformed JSON: {e}");
    let mut reader = ObjectReader::new(line)
        .map_err(malformed)?
        .ok_or("request must be a JSON object")?;
    let mut staged = Staged::default();
    while let Some((name, value)) = reader.next_field().map_err(malformed)? {
        if let Err(err) = staged.apply(&name, &value) {
            reader.finish().map_err(malformed)?;
            return Err(err);
        }
    }
    staged.finish(default_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_names_round_trip() {
        for d in DesignId::ALL {
            assert_eq!(DesignId::from_name(d.name()), Some(d));
        }
        assert_eq!(DesignId::from_name("frobnicator"), None);
    }

    #[test]
    fn minimal_request_takes_all_defaults() {
        let r = parse_request(r#"{"design":"rca16"}"#, 9).unwrap();
        match r {
            Request::Eval {
                id,
                spec,
                priority,
                deadline_ms,
            } => {
                assert_eq!(id, 9);
                assert_eq!(spec, EvalSpec::defaults(DesignId::Rca16));
                assert_eq!(priority, Priority::High);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn priority_and_deadline_parse_but_stay_out_of_the_key() {
        let a = parse_request(r#"{"design":"mul8"}"#, 0).unwrap();
        let b = parse_request(r#"{"design":"mul8","priority":"low","deadline_ms":5}"#, 0).unwrap();
        let (
            Request::Eval { spec: sa, .. },
            Request::Eval {
                spec: sb,
                priority,
                deadline_ms,
                ..
            },
        ) = (a, b)
        else {
            panic!("both must be evals");
        };
        assert_eq!(priority, Priority::Low);
        assert_eq!(deadline_ms, Some(5));
        // Service attributes are excluded from canonicalization, like id.
        assert_eq!(sa.canonical(), sb.canonical());
        assert_eq!(sa.key(), sb.key());
    }

    #[test]
    fn bad_service_attributes_are_deterministic_errors() {
        for (line, needle) in [
            (
                r#"{"design":"rca16","priority":"urgent"}"#,
                "unknown priority",
            ),
            (r#"{"design":"rca16","deadline_ms":0}"#, "at least 1"),
            (r#"{"op":"stats","priority":"low"}"#, "takes no spec fields"),
            (
                r#"{"op":"shutdown","deadline_ms":9}"#,
                "takes no spec fields",
            ),
        ] {
            let err = parse_request(line, 0).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
            assert_eq!(err, parse_request(line, 0).unwrap_err());
        }
    }

    #[test]
    fn field_reordering_yields_the_same_canonical_form() {
        let a = parse_request(
            r#"{"design":"ks16","seed":11,"cycles":500,"scheme":"razor-ff"}"#,
            0,
        )
        .unwrap();
        let b = parse_request(
            r#"{"scheme":"razor-ff","cycles":500,"design":"ks16","seed":11}"#,
            0,
        )
        .unwrap();
        let (Request::Eval { spec: sa, .. }, Request::Eval { spec: sb, .. }) = (a, b) else {
            panic!("both must be evals");
        };
        assert_eq!(sa.canonical(), sb.canonical());
        assert_eq!(sa.key(), sb.key());
    }

    #[test]
    fn number_spelling_collapses_but_value_changes_do_not() {
        let parse = |line: &str| match parse_request(line, 0).unwrap() {
            Request::Eval { spec, .. } => spec,
            other => panic!("{other:?}"),
        };
        let a = parse(r#"{"design":"rca16","checking_pct":24}"#);
        let b = parse(r#"{"design":"rca16","checking_pct":24.0}"#);
        let c = parse(r#"{"design":"rca16","checking_pct":24.5}"#);
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn id_is_not_part_of_the_cache_key() {
        let a = parse_request(r#"{"design":"mul8","id":1}"#, 0).unwrap();
        let b = parse_request(r#"{"design":"mul8","id":2}"#, 0).unwrap();
        let (Request::Eval { spec: sa, .. }, Request::Eval { spec: sb, .. }) = (a, b) else {
            panic!("both must be evals");
        };
        assert_eq!(sa.key(), sb.key());
    }

    #[test]
    fn unknown_duplicate_and_type_errors_are_deterministic() {
        for (line, needle) in [
            (r#"{"design":"rca16","frob":1}"#, "unknown field"),
            (r#"{"design":"nope"}"#, "unknown design"),
            (r#"{"design":"rca16","scheme":"nope"}"#, "unknown scheme"),
            (r#"{"design":"rca16","storm":"nope"}"#, "unknown storm"),
            (r#"{"design":"rca16","trials":0}"#, "out of range"),
            (r#"{"design":"rca16","cycles":0}"#, "out of range"),
            (r#"{"design":"rca16","checking_pct":99}"#, "out of range"),
            (r#"{"design":"rca16","seed":"x"}"#, "non-negative integer"),
            (r#"{"op":"stats","design":"rca16"}"#, "takes no spec fields"),
            (r#"{}"#, "needs a \"design\""),
            (r#"[1,2]"#, "JSON object"),
            (r#"{"design""#, "malformed JSON"),
        ] {
            let err = parse_request(line, 0).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
            // Determinism: the same line always produces the same error.
            assert_eq!(err, parse_request(line, 0).unwrap_err());
        }
        let dup = parse_request(r#"{"design":"rca16","design":"ks16"}"#, 0);
        // The vendored parser may reject duplicate keys itself; either
        // way the line must fail deterministically.
        assert!(!matches!(dup, Ok(Request::Eval { .. })));
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#, 5).unwrap(),
            Request::Stats { id: 5 }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","id":77}"#, 5).unwrap(),
            Request::Shutdown { id: 77 }
        );
    }

    #[test]
    fn design_tier_key_ignores_scheme_and_budget() {
        let mut a = EvalSpec::defaults(DesignId::Datapath);
        let mut b = a;
        b.scheme = SchemeId::RazorFf;
        b.trials = 4;
        b.seed = 99;
        assert_eq!(a.design_key(), b.design_key());
        assert_ne!(a.key(), b.key());
        a.k_tb = 2;
        assert_ne!(a.design_key(), b.design_key());
    }

    /// Cache keys are persisted in journals, so these digests must
    /// never move: a changed key strands every journalled result.
    #[test]
    fn golden_keys_are_stable() {
        let spec = |design: DesignId| EvalSpec::defaults(design);
        let cases: [(EvalSpec, &str, &str); 8] = [
            (
                spec(DesignId::Rca16),
                "cf89abdba66e16de6953d0534d5b7314d39045dd74daf15d684aaa90e6119e96",
                "a89a8fe8bc367a14c6d59c26e75be4893471907df30e6c104b560c6a7c0dafec",
            ),
            (
                EvalSpec {
                    scheme: SchemeId::RazorFf,
                    ..spec(DesignId::Ks16)
                },
                "ee0ce0b6d2f976efcdb2cdd2c64e719cb0aa5a8699dcd9d28c06a055f10523ea",
                "8e2df54a1c9e5c9dffdf581d14470567c909b541cd9b8adbae4bddb0c859123a",
            ),
            (
                EvalSpec {
                    storm: Some(StormScenario::DroopTrain),
                    scheme: SchemeId::TransitionDetectorFf,
                    ..spec(DesignId::Mul8)
                },
                "ff5335f4a61ff53c41ea9f9a28ae1f1ccdc1c58e300c46866e323726d205573d",
                "f9781271dee8dc7544a08a816d1f1b913dbb62cb703f91a246258a45558f20b0",
            ),
            (
                EvalSpec {
                    checking_pct: 37.5,
                    k_tb: 3,
                    k_ed: 4,
                    ..spec(DesignId::Alu8)
                },
                "5702afee2404e0aa05acbc83f41196791f661e67c8253240f034e4b4b7a56807",
                "9fb165585d40fef230220d7aae5e92e391cb86a811f64fac6a168ca37985c136",
            ),
            (
                EvalSpec {
                    seed: u64::MAX,
                    trials: MAX_TRIALS,
                    cycles: MAX_CYCLES,
                    ..spec(DesignId::RandomDag)
                },
                "89c2862ed676905a9995c13f36deaa595bac9af617a92b7a0193db6f7cc4674f",
                "f830e57063e07b981b724b2ff57ad2daac38d984ef87958d514923396edfa4f1",
            ),
            (
                EvalSpec {
                    storm: Some(StormScenario::FlagSpikes),
                    scheme: SchemeId::TimberLatch,
                    checking_pct: 0.1,
                    k_tb: 0,
                    seed: 0,
                    ..spec(DesignId::Datapath)
                },
                "dba05d8191273f07dc28f87b988060fad79a99e579dbb3e1d4885382f5a4a460",
                "64f25de25811297cb24a529cd07411ad5cc5f183f31e4bc30d4a6199afa2bfe0",
            ),
            (
                EvalSpec {
                    storm: Some(StormScenario::AgingRamp),
                    scheme: SchemeId::ConventionalFf,
                    trials: 1,
                    cycles: 1,
                    ..spec(DesignId::Proc)
                },
                "8d82a4cbe81eaecf9354bdc7625461642eb3b8f29539ce5d70c641942b9eae18",
                "50096a986f78a35fd6fd7ace1dac82a72cd0c0162b1ab5e88b5a47b515848247",
            ),
            (
                spec(DesignId::Poison),
                "621f823d426e180ad04fcd9140597dc1992a1541eddff1ed1f94414ceeadece5",
                "e0592fa4eeb51dbbe21e18d2bcc0814760c512b757d63cdad476a12515c8c904",
            ),
        ];
        for (spec, key, design_key) in cases {
            assert_eq!(spec.key().hex(), key, "{}", spec.canonical());
            assert_eq!(
                spec.design_key().hex(),
                design_key,
                "{}",
                spec.design_canonical()
            );
        }
    }

    #[test]
    fn widest_canonical_form_fits_the_writer() {
        let mut widest = 0;
        for design in DesignId::ALL {
            for scheme in SchemeId::ALL {
                for storm in StormScenario::ALL {
                    let spec = EvalSpec {
                        design,
                        scheme,
                        storm: Some(storm),
                        checking_pct: f64::MAX,
                        k_tb: u8::MAX,
                        k_ed: u8::MAX,
                        trials: usize::MAX,
                        cycles: u64::MAX,
                        seed: u64::MAX,
                    };
                    widest = widest.max(spec.canonical().len());
                }
            }
        }
        assert_eq!(widest, 207);
        assert!(widest <= CANONICAL_CAPACITY);
    }
}
