//! Differential test of [`parse_request`] against the tree-building
//! parser it replaced, and of the hand-rolled canonical writer against
//! the `format!` spelling it replaced.
//!
//! Both sides must agree exactly: the same `Ok(Request)`, or the same
//! error text byte for byte. Inputs are seeded, so every run checks the
//! same cases: lines generated from a small request grammar (known,
//! unknown, escaped, non-ASCII and duplicate keys; escaped strings,
//! every number shape, literals and nested values; whitespace at every
//! token boundary; trailing garbage), mutations of real request lines
//! (the storm generator's streams, the benchmark's fully explicit
//! specs and the unit tests' lines), and every truncation of a real
//! line. Hand-picked edge cases are pinned in [`PINNED`]; a line that
//! ever splits the two parsers joins them.

use serde_json::Value;
use timber_pipeline::montecarlo::splitmix64;
use timber_resilience::StormScenario;
use timber_schemes::SchemeId;

use crate::key::content_hash;
use crate::spec::{parse_request, DesignId, EvalSpec, Priority, Request, MAX_CYCLES, MAX_TRIALS};
use crate::storm::StormSpec;

fn field_u64(value: &Value, name: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("field {name:?} must be a non-negative integer"))
}

fn field_f64(value: &Value, name: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("field {name:?} must be a number"))
}

fn field_str<'v>(value: &'v Value, name: &str) -> Result<&'v str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("field {name:?} must be a string"))
}

/// The tree-building request parser the borrowed reader replaced, kept
/// verbatim as the oracle: parse the whole line into a [`Value`], then
/// interpret its members.
fn reference(line: &str, default_id: u64) -> Result<Request, String> {
    let doc = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let fields = match doc {
        Value::Object(fields) => fields,
        _ => return Err("request must be a JSON object".to_owned()),
    };

    let mut seen: Vec<&str> = Vec::new();
    let mut op = "eval";
    let mut id: Option<u64> = None;
    let mut design: Option<DesignId> = None;
    let mut spec_touched = false;
    let mut priority = Priority::High;
    let mut deadline_ms: Option<u64> = None;
    let mut service_touched = false;
    // Staged overrides, applied once the design (and thus the default
    // spec) is known.
    let mut scheme: Option<SchemeId> = None;
    let mut storm: Option<Option<StormScenario>> = None;
    let mut checking_pct: Option<f64> = None;
    let mut k_tb: Option<u8> = None;
    let mut k_ed: Option<u8> = None;
    let mut trials: Option<usize> = None;
    let mut cycles: Option<u64> = None;
    let mut seed: Option<u64> = None;

    for (name, value) in &fields {
        if seen.contains(&name.as_str()) {
            return Err(format!("duplicate field {name:?}"));
        }
        match name.as_str() {
            "op" => {
                op = match field_str(value, "op")? {
                    "eval" => "eval",
                    "stats" => "stats",
                    "shutdown" => "shutdown",
                    other => {
                        return Err(format!(
                            "unknown op {other:?} (expected eval, stats or shutdown)"
                        ))
                    }
                };
            }
            "id" => id = Some(field_u64(value, "id")?),
            "design" => {
                let text = field_str(value, "design")?;
                design = Some(DesignId::from_name(text).ok_or_else(|| {
                    format!(
                        "unknown design {text:?} (expected one of: {})",
                        DesignId::ALL.map(|d| d.name()).join(", ")
                    )
                })?);
            }
            "scheme" => {
                let text = field_str(value, "scheme")?;
                scheme = Some(SchemeId::from_name(text).ok_or_else(|| {
                    format!(
                        "unknown scheme {text:?} (expected one of: {})",
                        SchemeId::ALL.map(|s| s.name()).join(", ")
                    )
                })?);
                spec_touched = true;
            }
            "storm" => {
                let text = field_str(value, "storm")?;
                storm = Some(if text == "none" {
                    None
                } else {
                    Some(StormScenario::parse(text).ok_or_else(|| {
                        format!(
                            "unknown storm {text:?} (expected none, {})",
                            StormScenario::ALL.map(|s| s.name()).join(", ")
                        )
                    })?)
                });
                spec_touched = true;
            }
            "checking_pct" => {
                let pct = field_f64(value, "checking_pct")?;
                if !pct.is_finite() || pct <= 0.0 || pct > 50.0 {
                    return Err(format!("checking_pct {pct} out of range (0, 50]"));
                }
                checking_pct = Some(pct);
                spec_touched = true;
            }
            "k_tb" => {
                let k = field_u64(value, "k_tb")?;
                if k > 8 {
                    return Err(format!("k_tb {k} out of range 0..=8"));
                }
                k_tb = Some(k as u8);
                spec_touched = true;
            }
            "k_ed" => {
                let k = field_u64(value, "k_ed")?;
                if !(1..=8).contains(&k) {
                    return Err(format!("k_ed {k} out of range 1..=8"));
                }
                k_ed = Some(k as u8);
                spec_touched = true;
            }
            "trials" => {
                let t = field_u64(value, "trials")? as usize;
                if !(1..=MAX_TRIALS).contains(&t) {
                    return Err(format!("trials {t} out of range 1..={MAX_TRIALS}"));
                }
                trials = Some(t);
                spec_touched = true;
            }
            "cycles" => {
                let c = field_u64(value, "cycles")?;
                if !(1..=MAX_CYCLES).contains(&c) {
                    return Err(format!("cycles {c} out of range 1..={MAX_CYCLES}"));
                }
                cycles = Some(c);
                spec_touched = true;
            }
            "seed" => {
                seed = Some(field_u64(value, "seed")?);
                spec_touched = true;
            }
            "priority" => {
                priority = match field_str(value, "priority")? {
                    "high" => Priority::High,
                    "low" => Priority::Low,
                    other => {
                        return Err(format!("unknown priority {other:?} (expected high or low)"))
                    }
                };
                service_touched = true;
            }
            "deadline_ms" => {
                let d = field_u64(value, "deadline_ms")?;
                if d == 0 {
                    return Err("deadline_ms must be at least 1".to_owned());
                }
                deadline_ms = Some(d);
                service_touched = true;
            }
            other => return Err(format!("unknown field {other:?}")),
        }
        seen.push(name.as_str());
    }

    let id = id.unwrap_or(default_id);
    match op {
        "stats" | "shutdown" => {
            if design.is_some() || spec_touched || service_touched {
                return Err(format!("op {op:?} takes no spec fields"));
            }
            Ok(if op == "stats" {
                Request::Stats { id }
            } else {
                Request::Shutdown { id }
            })
        }
        _ => {
            let design = design.ok_or("eval request needs a \"design\" field")?;
            let mut spec = EvalSpec::defaults(design);
            if let Some(v) = scheme {
                spec.scheme = v;
            }
            if let Some(v) = storm {
                spec.storm = v;
            }
            if let Some(v) = checking_pct {
                spec.checking_pct = v;
            }
            if let Some(v) = k_tb {
                spec.k_tb = v;
            }
            if let Some(v) = k_ed {
                spec.k_ed = v;
            }
            if let Some(v) = trials {
                spec.trials = v;
            }
            if let Some(v) = cycles {
                spec.cycles = v;
            }
            if let Some(v) = seed {
                spec.seed = v;
            }
            Ok(Request::Eval {
                id,
                spec,
                priority,
                deadline_ms,
            })
        }
    }
}

/// The `format!` spellings of both canonical forms, as they were before
/// the writer was hand-rolled.
fn reference_canonical(spec: &EvalSpec) -> (String, String) {
    (
        format!(
            "timber-serve/v1;design={};scheme={};storm={};pct_bits={:016x};k_tb={};k_ed={};trials={};cycles={};seed={}",
            spec.design.name(),
            spec.scheme.name(),
            spec.storm_name(),
            spec.checking_pct.to_bits(),
            spec.k_tb,
            spec.k_ed,
            spec.trials,
            spec.cycles,
            spec.seed,
        ),
        format!(
            "timber-serve-design/v1;design={};pct_bits={:016x};k_tb={};k_ed={}",
            spec.design.name(),
            spec.checking_pct.to_bits(),
            spec.k_tb,
            spec.k_ed,
        ),
    )
}

/// Edge cases: error ranking, duplicates, escapes, non-ASCII, number
/// limits, whitespace, and syntax errors after a field error.
const PINNED: &[&str] = &[
    r#"{"design":"rca16","design":"rca16"}"#,
    r#"{"frob":1,"frob":2}"#,
    r#"{"design":"nope","seed":}"#,
    r#"{"design":"rca16","trials":0} x"#,
    r#"{"design":"rca16"}"#,
    r#"{"design":"rca16","scheme":"timber-ff"}"#,
    r#"{"design":"rca16","storm":"\"none\""}"#,
    r#"{"design":"rca16","storm":"none\\"}"#,
    r#"{"désign":"rca16"}"#,
    r#"{"design":"é"}"#,
    r#"{"design":"rca16","seed":[1,{"a":null}]}"#,
    r#"{"design":"rca16","op":true}"#,
    r#"{"design":null}"#,
    r#"{"op":"stats","id":18446744073709551615}"#,
    r#"{"design":"rca16","seed":18446744073709551616}"#,
    r#"{"design":"rca16","seed":-0}"#,
    r#"{"design":"rca16","checking_pct":-0.0}"#,
    r#"{"design":"rca16","checking_pct":1e400}"#,
    r#"{"design":"rca16","checking_pct":5e-324}"#,
    r#"{"design":"rca16","k_tb":1.0}"#,
    " \t\r\n{ \"design\" : \"rca16\" , \"id\" :\n3 } \r\n",
    r#"{"design":"rca16",}"#,
    r#"{"design":"rca16""seed":1}"#,
    r#"{"design" "rca16"}"#,
    r#"{"design":"rca16"}}"#,
    r#"{"design":"rca16","x":"\q"}"#,
    r#"{"design":"rca16","x":"\u12"}"#,
    r#"{"design":"rca16","x":"\ud800"}"#,
    r#"{"op":"shutdown","design":"nope"}"#,
    r#"{"design":"nope","op":"stats"}"#,
    r#"[{"design":"rca16"}]"#,
    r#""design""#,
    "",
    "   ",
    "{",
    "}",
    "nul",
    "-",
];

/// A seeded stream of draws.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws { seed, n: 0 }
    }

    fn below(&mut self, n: usize) -> usize {
        self.n += 1;
        (splitmix64(self.seed, self.n) % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn pick<'p>(&mut self, pool: &[&'p str]) -> &'p str {
        pool[self.below(pool.len())]
    }
}

/// Keys as spelled on the wire.
const KEYS: &[&str] = &[
    r#""op""#,
    r#""id""#,
    r#""design""#,
    r#""scheme""#,
    r#""storm""#,
    r#""checking_pct""#,
    r#""k_tb""#,
    r#""k_ed""#,
    r#""trials""#,
    r#""cycles""#,
    r#""seed""#,
    r#""priority""#,
    r#""deadline_ms""#,
    r#""design""#,
    r#""seed""#,
    r#""frob""#,
    r#""Design""#,
    r#""désign""#,
    r#""ключ""#,
    r#""""#,
    r#""de\"sign""#,
    r#""seed\\""#,
];

/// String contents: every name a field accepts, escaped spellings of
/// some, and junk.
const STRINGS: &[&str] = &[
    "eval",
    "stats",
    "shutdown",
    "rca16",
    "ks16",
    "mul8",
    "alu8",
    "random_dag",
    "datapath",
    "proc",
    "poison",
    "timber-ff",
    "timber-latch",
    "razor-ff",
    "transition-detector-ff",
    "canary-ff",
    "soft-edge-ff",
    "logical-masking",
    "conventional-ff",
    "none",
    "droop-train",
    "aging-ramp",
    "flag-spikes",
    "high",
    "low",
    "",
    "x",
    r"rca16",
    r"timber-ff",
    r#"\""#,
    r"\\",
    r"\/",
    r"\b\f\n\r\t",
    "é",
    r"é",
    r"\x",
    r"\u12",
    r"\ud800",
];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "8",
    "9",
    "24",
    "24.0",
    "24.5",
    "50",
    "50.0",
    "50.0001",
    "64",
    "65",
    "400",
    "1000000",
    "1000001",
    "-1",
    "-0",
    "0.0",
    "-0.0",
    "1e2",
    "1E-2",
    "2.5e1",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1.",
    "-",
    ".5",
    "01",
    "1e",
    "+1",
];

const OTHERS: &[&str] = &[
    "true",
    "false",
    "null",
    "tru",
    "nul",
    "[]",
    "{}",
    r#"[1,"a",[null]]"#,
    r#"{"a":{"b":[1,2]}}"#,
    r#"{"design":"rca16"}"#,
    "[1,,2]",
    r#"{"a"}"#,
];

/// Values each known key accepts, in [`KEYS`] order.
const VALID: [&[&str]; 13] = [
    &[r#""eval""#, r#""eval""#, r#""stats""#],
    &["0", "5", "18446744073709551615"],
    &[
        r#""rca16""#,
        r#""proc""#,
        r#""random_dag""#,
        r#""rca\u0031\u0036""#,
    ],
    &[r#""timber-ff""#, r#""razor-ff""#, r#""conventional-ff""#],
    &[r#""none""#, r#""droop-train""#, r#""flag-spikes""#],
    &["24", "24.0", "12.5", "50", "2.4e1"],
    &["0", "1", "8"],
    &["1", "2", "8"],
    &["1", "64"],
    &["1", "400", "1000000"],
    &["0", "7", "18446744073709551615"],
    &[r#""high""#, r#""low""#],
    &["1", "250"],
];

const SPACE: &[&str] = &[" ", "\t", "\n", "\r", "  ", "\r\n"];

const TRAILERS: &[&str] = &["x", "}", ",", " 1", "{}", "é", " \t", "\n"];

/// Optional whitespace at a token boundary.
fn ws(d: &mut Draws, out: &mut String) {
    if d.chance(15) {
        out.push_str(d.pick(SPACE));
    }
}

fn gen_value(d: &mut Draws, out: &mut String) {
    match d.below(10) {
        0..=4 => {
            out.push('"');
            out.push_str(d.pick(STRINGS));
            if !d.chance(2) {
                out.push('"');
            }
        }
        5..=7 => out.push_str(d.pick(NUMBERS)),
        _ => out.push_str(d.pick(OTHERS)),
    }
}

/// One line from the request grammar, with a few seeded faults.
fn gen_line(d: &mut Draws) -> String {
    let mut out = String::new();
    ws(d, &mut out);
    if d.chance(3) {
        gen_value(d, &mut out);
    } else {
        out.push('{');
        if d.chance(70) {
            out.push_str(r#""design":"mul8""#);
        }
        let members = d.below(6);
        for i in 0..members {
            ws(d, &mut out);
            if (i > 0 || out.ends_with('"')) && !d.chance(2) {
                out.push(',');
                ws(d, &mut out);
            }
            // Mostly known keys with values they accept, so many lines
            // get through validation to a request.
            let known = if d.chance(85) {
                d.below(VALID.len())
            } else {
                d.below(KEYS.len())
            };
            out.push_str(KEYS[known]);
            ws(d, &mut out);
            if !d.chance(2) {
                out.push(':');
            }
            ws(d, &mut out);
            match VALID.get(known) {
                Some(valid) if d.chance(85) => out.push_str(d.pick(valid)),
                _ => gen_value(d, &mut out),
            }
            ws(d, &mut out);
        }
        if d.chance(2) {
            out.push(',');
        }
        if !d.chance(3) {
            out.push('}');
        }
    }
    ws(d, &mut out);
    if d.chance(5) {
        out.push_str(d.pick(TRAILERS));
    }
    out
}

/// Real lines: both storm generator modes, the benchmark's fully
/// explicit spelling, and lines from the unit tests.
fn corpus() -> Vec<String> {
    let mut lines = StormSpec::pinned(42).stream();
    lines.extend(
        StormSpec {
            chaos_seed: Some(7),
            poison: 2,
            ..StormSpec::pinned(1009)
        }
        .stream(),
    );
    lines.truncate(48);
    for (i, design) in DesignId::EVALUABLE.into_iter().enumerate() {
        lines.push(format!(
            "{{\"id\":{i},\"design\":\"{}\",\"scheme\":\"{}\",\"storm\":\"{}\",\
             \"checking_pct\":{:?},\"k_tb\":{},\"k_ed\":{},\"trials\":{},\"cycles\":{},\"seed\":{}}}",
            design.name(),
            SchemeId::ALL[i].name(),
            if i % 2 == 0 { "none" } else { "aging-ramp" },
            [12.5, 24.0, 30.0][i % 3],
            i % 4,
            1 + i % 3,
            1 + i,
            400 * (i + 1),
            1000 + i
        ));
    }
    lines.extend(
        [
            r#"{"op":"eval","id":3,"design":"rca16","scheme":"timber-ff","checking_pct":24.0,"k_tb":1,"k_ed":2,"trials":2,"cycles":400,"seed":7,"storm":"droop-train"}"#,
            r#"{"design":"mul8","priority":"low","deadline_ms":5}"#,
            r#"{"scheme":"razor-ff","cycles":500,"design":"ks16","seed":11}"#,
            r#"{"op":"shutdown","id":77}"#,
            r#"{"op":"stats"}"#,
        ]
        .map(str::to_owned),
    );
    lines
}

/// Characters a mutation splices in.
const SPLICE: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\t', '0', '9', '.', '-', 'e', 'n', 'u', 'é',
];

/// `line` with one to three seeded edits: delete, insert, replace,
/// duplicate a span, or splice in a grammar token.
fn mutate(d: &mut Draws, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..1 + d.below(3) {
        let at = d.below(chars.len() + 1);
        match d.below(5) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, SPLICE[d.below(SPLICE.len())]),
            2 if at < chars.len() => chars[at] = SPLICE[d.below(SPLICE.len())],
            3 if at < chars.len() => {
                let end = (at + 1 + d.below(12)).min(chars.len());
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => {
                let mut token = String::new();
                gen_value(d, &mut token);
                chars.splice(at..at, token.chars());
            }
        }
    }
    chars.into_iter().collect()
}

/// Asserts both parsers agree on `line`; returns 1 so callers can count.
fn check(line: &str, id: u64) -> usize {
    assert_eq!(
        parse_request(line, id),
        reference(line, id),
        "parsers disagree on {line:?}"
    );
    1
}

#[test]
fn pinned_lines_parse_like_the_reference() {
    for (i, line) in PINNED.iter().enumerate() {
        check(line, i as u64);
    }
}

#[test]
fn generated_lines_parse_like_the_reference() {
    let mut d = Draws::new(0x5EED_0001);
    let mut ok = 0;
    for i in 0..12_000 {
        let line = gen_line(&mut d);
        check(&line, i);
        ok += usize::from(parse_request(&line, i).is_ok());
    }
    // The grammar must reach the accepting path often enough to matter.
    assert!(ok > 1_000, "only {ok} generated lines parsed");
}

#[test]
fn mutated_real_lines_parse_like_the_reference() {
    let corpus = corpus();
    let mut d = Draws::new(0x5EED_0002);
    let mut cases = 0;
    for line in &corpus {
        cases += check(line, 0);
    }
    for i in 0..12_000 {
        let line = mutate(&mut d, &corpus[i % corpus.len()]);
        cases += check(&line, i as u64);
    }
    assert!(cases >= 12_000);
}

#[test]
fn every_truncation_of_a_real_line_parses_like_the_reference() {
    let mut cases = 0;
    for line in corpus()
        .iter()
        .chain(&[r#"{"design":"rca16","key":"é","seed":[1,{"x":true}]}"#.to_owned()])
    {
        for end in (0..=line.len()).filter(|&end| line.is_char_boundary(end)) {
            cases += check(&line[..end], 5);
        }
    }
    assert!(cases > 4_000, "{cases}");
}

#[test]
fn canonical_writer_matches_the_format_spelling() {
    let mut d = Draws::new(0x5EED_0003);
    let storms = [
        None,
        Some(StormScenario::DroopTrain),
        Some(StormScenario::AgingRamp),
        Some(StormScenario::FlagSpikes),
    ];
    let wide = [0, 1, 9, 10, 99, 100, 12_345, u64::MAX / 3, u64::MAX];
    for _ in 0..2_000 {
        let spec = EvalSpec {
            design: DesignId::ALL[d.below(8)],
            scheme: SchemeId::ALL[d.below(8)],
            storm: storms[d.below(4)],
            checking_pct: [24.0, 0.1, 50.0, 1e-300, 33.333][d.below(5)],
            k_tb: [0, 1, 8, 255][d.below(4)],
            k_ed: [1, 2, 8, 255][d.below(4)],
            trials: [1, MAX_TRIALS, usize::MAX][d.below(3)],
            cycles: [1, MAX_CYCLES, wide[d.below(wide.len())]][d.below(3)],
            seed: wide[d.below(wide.len())],
        };
        let (canonical, design) = reference_canonical(&spec);
        assert_eq!(spec.canonical(), canonical);
        assert_eq!(spec.design_canonical(), design);
        assert_eq!(spec.key(), content_hash(canonical.as_bytes()));
        assert_eq!(spec.design_key(), content_hash(design.as_bytes()));
    }
}
