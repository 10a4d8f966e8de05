//! End-to-end exit-code contract of the `repro` binary: `0` success,
//! `1` gate findings, `2` usage error — the codes CI and scripts rely
//! on.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn lint_gate_passes_on_shipped_configs() {
    let out = repro(&["lint", "--deny", "warn"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("PASS"), "{text}");
}

#[test]
fn lint_json_is_a_single_machine_readable_document() {
    let out = repro(&["lint", "--json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-lint"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert!(doc["reports"].as_array().is_some_and(|r| !r.is_empty()));
}

#[test]
fn unknown_subcommand_exits_2_and_lists_lint() {
    let out = repro(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("lint"), "usage must list lint: {err}");
    assert!(err.contains("analyze"), "usage must list analyze: {err}");
    assert!(err.contains("conform"), "usage must list conform: {err}");
    assert!(err.contains("soak"), "usage must list soak: {err}");
    assert!(err.contains("serve"), "usage must list serve: {err}");
    assert!(err.contains("storm"), "usage must list storm: {err}");
    assert!(err.contains("chaos"), "usage must list chaos: {err}");
    assert!(err.contains("tune"), "usage must list tune: {err}");
}

#[test]
fn analyze_gate_passes_on_shipped_configs() {
    let out = repro(&["analyze", "--deny", "warn"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("incorruptible"), "{text}");
    assert!(text.contains("proved"), "{text}");
}

#[test]
fn analyze_json_is_a_single_machine_readable_document() {
    let out = repro(&["analyze", "--json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-analyze"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert!(doc["certificates"]
        .as_array()
        .is_some_and(|c| !c.is_empty()));
    assert!(doc["governor"]
        .as_array()
        .is_some_and(|g| g.iter().all(|a| a["proved"] == serde_json::json!(true))));
    assert_eq!(doc["soundness"]["violations"], serde_json::json!([]));
}

#[test]
fn analyze_sabotage_fails_with_exit_1() {
    let out = repro(&["analyze", "--sabotage"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("sabotage seeded"), "{text}");
}

#[test]
fn analyze_unknown_flag_exits_2_and_names_it() {
    let out = repro(&["analyze", "--frobs", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobs"), "{err}");
}

#[test]
fn analyze_bad_deny_value_exits_2() {
    let out = repro(&["analyze", "--deny", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny"));
}

#[test]
fn analyze_unexpected_argument_exits_2() {
    let out = repro(&["analyze", "everything"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unexpected argument"), "{err}");
}

#[test]
fn bad_deny_value_exits_2() {
    let out = repro(&["lint", "--deny", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny"));
}

#[test]
fn conform_gate_passes_on_the_pinned_seed() {
    let out = repro(&["conform", "--threads", "4"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("coverage"), "{text}");
}

#[test]
fn conform_json_is_a_single_machine_readable_document() {
    let out = repro(&["conform", "--json", "--threads", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-conformance"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert_eq!(doc["cases_run"], serde_json::json!(640));
    assert!(doc["coverage"].as_array().is_some_and(|c| !c.is_empty()));
}

#[test]
fn conform_threads_do_not_change_the_json() {
    let one = repro(&["conform", "--json", "--threads", "1", "--seed", "11"]);
    let four = repro(&["conform", "--json", "--threads", "4", "--seed", "11"]);
    assert!(one.status.success());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "report must be byte-identical");
}

#[test]
fn conform_unknown_flag_exits_2() {
    let out = repro(&["conform", "--shards", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn conform_bad_seed_exits_2() {
    let out = repro(&["conform", "--seed", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}

#[test]
fn soak_gate_passes_and_quarantines_exactly_the_injected_failures() {
    let out = repro(&[
        "soak",
        "--json",
        "--cycles",
        "400",
        "--inject-panic",
        "2",
        "--threads",
        "4",
    ]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-soak"));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert_eq!(doc["injected"], serde_json::json!(2));
    let quarantined = doc["quarantined"].as_array().expect("ledger");
    assert_eq!(quarantined.len(), 2, "{text}");
    for q in quarantined {
        assert_eq!(q["kind"], serde_json::json!("panic"));
    }
}

#[test]
fn soak_stop_then_resume_matches_an_uninterrupted_run_byte_for_byte() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("repro-soak-cli-resume-{}", std::process::id()));
    let ckpt = ckpt.to_str().unwrap();
    let _ = std::fs::remove_file(ckpt);
    let common = [
        "--json",
        "--cycles",
        "400",
        "--seed",
        "11",
        "--threads",
        "4",
    ];

    let mut first: Vec<&str> = vec!["soak", "--checkpoint", ckpt, "--stop-after", "10"];
    first.extend_from_slice(&common);
    let stopped = repro(&first);
    assert!(stopped.status.success(), "stopped run must still exit 0");

    let mut second: Vec<&str> = vec!["soak", "--checkpoint", ckpt, "--resume"];
    second.extend_from_slice(&common);
    let resumed = repro(&second);
    assert!(resumed.status.success());

    let mut uninterrupted: Vec<&str> = vec!["soak"];
    uninterrupted.extend_from_slice(&common);
    let clean = repro(&uninterrupted);
    assert!(clean.status.success());
    assert_eq!(
        resumed.stdout, clean.stdout,
        "resumed report must be byte-identical"
    );
    let _ = std::fs::remove_file(ckpt);
}

#[test]
fn soak_unreadable_checkpoint_exits_2_and_names_the_path() {
    // A directory is never a valid checkpoint log: opening it for
    // append fails, and the diagnostic must name the offending path.
    let dir = std::env::temp_dir();
    let out = repro(&[
        "soak",
        "--cycles",
        "400",
        "--checkpoint",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint"), "{err}");
    assert!(err.contains(dir.to_str().unwrap()), "{err}");
}

#[test]
fn soak_resume_without_checkpoint_exits_2() {
    let out = repro(&["soak", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint"), "{err}");
}

#[test]
fn soak_bad_inject_count_exits_2_and_names_the_flag() {
    let out = repro(&["soak", "--inject-panic", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--inject-panic"));
}

#[test]
fn storm_campaign_passes_and_replays_byte_identically() {
    let args = [
        "storm",
        "--clients",
        "3",
        "--requests",
        "24",
        "--poison",
        "1",
        "--seed",
        "7",
        "--threads",
        "4",
        "--json",
    ];
    let a = repro(&args);
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(a.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-storm"));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert_eq!(doc["counters"]["quarantined"], serde_json::json!(1));
    // A cold replay in a fresh process with a different thread count
    // must produce the identical document.
    let mut replay_args = args;
    replay_args[10] = "1";
    let b = repro(&replay_args);
    assert!(b.status.success());
    assert_eq!(a.stdout, b.stdout, "storm report must replay exactly");
}

#[test]
fn storm_unknown_flag_exits_2_and_names_it() {
    let out = repro(&["storm", "--frobs", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobs"), "{err}");
}

#[test]
fn chaos_campaign_accounts_for_every_fault_and_replays_byte_identically() {
    let args = [
        "chaos",
        "--seed",
        "42",
        "--faults",
        "7",
        "--threads",
        "4",
        "--json",
    ];
    let a = repro(&args);
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(a.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-chaos"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    for entry in doc["taxonomy"].as_array().expect("taxonomy array") {
        assert_eq!(
            entry["injected"], entry["detected"],
            "unaccounted fault kind: {entry}"
        );
    }
    // The same campaign at a different thread count must produce the
    // identical document.
    let mut replay_args = args;
    replay_args[6] = "1";
    let b = repro(&replay_args);
    assert!(b.status.success());
    assert_eq!(a.stdout, b.stdout, "chaos report must be thread-invariant");
}

#[test]
fn chaos_sabotage_is_caught_and_exits_1() {
    let out = repro(&["chaos", "--seed", "42", "--faults", "7", "--sabotage"]);
    assert_eq!(out.status.code(), Some(1), "sabotage must fail the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(
        text.contains("checksum-sentinel-caught"),
        "the sentinel check must be reported: {text}"
    );
}

#[test]
fn chaos_unknown_flag_exits_2_and_names_it() {
    let out = repro(&["chaos", "--frobs", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobs"), "{err}");
}

#[test]
fn chaos_bad_faults_count_exits_2_and_names_the_flag() {
    let out = repro(&["chaos", "--faults", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults"));
}

#[test]
fn storm_chaos_client_retries_to_a_fully_served_stream() {
    let out = repro(&[
        "storm",
        "--requests",
        "64",
        "--seed",
        "7",
        "--chaos-seed",
        "5",
        "--retry-base",
        "1",
        "--retry-cap",
        "2",
        "--json",
    ]);
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["schema_version"], serde_json::json!(2));
    assert_eq!(doc["chaos_seed"], serde_json::json!(5));
    let clients = doc["client_stats"].as_array().expect("client_stats");
    let deadline_misses: u64 = clients
        .iter()
        .map(|c| c["deadline_misses"].as_u64().unwrap())
        .sum();
    let retries: u64 = clients.iter().map(|c| c["retries"].as_u64().unwrap()).sum();
    assert!(deadline_misses > 0, "seeded deadlines must fire: {doc}");
    assert!(retries >= deadline_misses, "{doc}");
    assert!(doc["responses"]
        .as_array()
        .unwrap()
        .iter()
        .all(|r| r["status"] == serde_json::json!("ok")));
}

#[test]
fn serve_unknown_flag_exits_2_and_names_it() {
    let out = repro(&["serve", "--frobs", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobs"), "{err}");
}

#[test]
fn serve_resume_without_checkpoint_exits_2() {
    let out = repro(&["serve", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint"), "{err}");
}

#[test]
fn serve_answers_a_session_on_stdin_and_honours_shutdown() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--batch-size", "4"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"id\":1,\"design\":\"rca16\",\"trials\":1,\"cycles\":200}\n\
              {\"id\":2,\"design\":\"rca16\",\"trials\":1,\"cycles\":200}\n\
              {\"id\":3,\"op\":\"stats\"}\n\
              {\"id\":4,\"op\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    let docs: Vec<serde_json::Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("valid JSON"))
        .collect();
    // Identical content answered identically, warm equal to cold.
    assert_eq!(docs[0]["status"], serde_json::json!("ok"));
    assert_eq!(docs[0]["key"], docs[1]["key"]);
    assert_eq!(docs[0]["totals"], docs[1]["totals"]);
    let counters = &docs[2]["stats"]["counters"];
    assert_eq!(counters["misses"], serde_json::json!(1), "{text}");
    assert_eq!(counters["hits"], serde_json::json!(1), "{text}");
    assert_eq!(docs[3]["shutdown"], serde_json::json!(true));
}

#[test]
fn bench_check_unreadable_fresh_file_exits_2_and_names_the_path() {
    let out = repro(&["bench-check", "--fresh", "/nonexistent/FRESH.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/FRESH.json"), "{err}");
}

/// The committed golden frontier at the repository root, resolved from
/// the crate dir so the test passes from any working directory.
const GOLDEN_FRONTIER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FRONTIER_tune.json");

#[test]
fn tune_gate_passes_and_reports_anchors_in_band() {
    // Budget 12 covers the four paper-anchor candidates (enumerated
    // first) without evaluating the whole space in a debug build.
    let out = repro(&["tune", "--budget", "12", "--threads", "4"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("immediate-30"), "{text}");
    assert!(text.contains("deferred-30"), "{text}");
    assert!(text.contains("within band"), "{text}");
    assert!(!text.contains("OUT OF BAND"), "{text}");
}

#[test]
fn tune_json_is_a_single_machine_readable_document() {
    let out = repro(&["tune", "--json", "--budget", "12", "--threads", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("repro tune"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["validation"]["pass"], serde_json::json!(true));
    assert_eq!(doc["budget"], serde_json::json!(12));
    let designs = doc["designs"].as_array().expect("designs array");
    assert_eq!(designs.len(), 2, "{text}");
    for d in designs {
        assert!(d["frontier"].as_array().is_some_and(|f| !f.is_empty()));
    }
    let anchors = doc["anchors"].as_array().expect("anchors array");
    assert_eq!(anchors.len(), 4, "{text}");
    for a in anchors {
        assert_eq!(a["within_band"], serde_json::json!(true), "{a}");
    }
}

#[test]
fn tune_threads_do_not_change_the_json() {
    let one = repro(&["tune", "--json", "--budget", "12", "--threads", "1"]);
    let four = repro(&["tune", "--json", "--budget", "12", "--threads", "4"]);
    assert!(one.status.success());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "frontier must be byte-identical");
}

#[test]
fn tune_out_writes_the_stdout_document_with_a_trailing_newline() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("repro-tune-cli-out-{}.json", std::process::id()));
    let path = path.to_str().unwrap();
    let out = repro(&["tune", "--json", "--budget", "12", "--out", path]);
    assert!(out.status.success());
    let written = std::fs::read(path).expect("artifact written");
    assert_eq!(written, out.stdout, "--out must mirror stdout");
    assert!(written.ends_with(b"\n"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn tune_golden_frontier_reproduces_byte_identically() {
    let out = repro(&[
        "tune",
        "--frontier-check",
        GOLDEN_FRONTIER,
        "--threads",
        "4",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {text}\nstderr: {err}");
    assert!(text.contains("PASS"), "{text}");
}

#[test]
fn tune_frontier_check_detects_a_single_tampered_byte() {
    let golden = std::fs::read_to_string(GOLDEN_FRONTIER).expect("golden committed");
    let needle = "\"energy_per_instr\": 1.0";
    assert!(golden.contains(needle), "golden format changed");
    let tampered = golden.replacen(needle, "\"energy_per_instr\": 9.0", 1);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("repro-tune-cli-drift-{}.json", std::process::id()));
    std::fs::write(&path, tampered).unwrap();
    let out = repro(&["tune", "--frontier-check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drifted"), "{err}");
    assert!(err.contains("first difference at line"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tune_sabotage_fails_with_exit_1() {
    let out = repro(&["tune", "--sabotage", "--budget", "12", "--threads", "4"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("FAILED"), "{err}");
    assert!(err.contains("dominated"), "{err}");
}

#[test]
fn tune_unknown_flag_exits_2_and_names_it() {
    let out = repro(&["tune", "--frobs", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobs"), "{err}");
}

#[test]
fn tune_unexpected_argument_exits_2() {
    let out = repro(&["tune", "everything"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unexpected argument"), "{err}");
}

#[test]
fn tune_bad_budget_exits_2_and_names_the_flag() {
    let out = repro(&["tune", "--budget", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget"));
}

#[test]
fn tune_missing_golden_exits_2_and_names_the_path() {
    let out = repro(&["tune", "--frontier-check", "/nonexistent/FRONTIER.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/FRONTIER.json"), "{err}");
}

/// The harness self-test: with the seeded model-B bug active the gate
/// must fail with exit 1 and print a divergence. Ignored by default —
/// the sabotaged campaign minimizes every divergence, which takes
/// a while in debug builds (CI's workflow_dispatch job runs it).
#[test]
#[ignore = "slow: minimizes hundreds of divergences; run with -- --ignored"]
fn conform_sabotage_fails_with_exit_1() {
    let out = repro(&["conform", "--sabotage", "--threads", "4"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DIVERGENCE"), "{text}");
    assert!(text.contains("FAIL"), "{text}");
}

/// The per-subcommand flag table: a flag that another subcommand reads
/// exits 2 naming it, `--f=v` and flags before the subcommand are still
/// accepted, and each subcommand takes exactly its positionals. Every
/// case is cheap: refusals exit before any work runs, and the accepted
/// forms use `lint` and `fig2`.
#[test]
fn flags_and_positionals_follow_the_subcommand_table() {
    // (argv, exit code, text stderr must contain)
    let cases: &[(&[&str], i32, &str)] = &[
        (
            &["fig2", "--sabotage", "--faults", "3"],
            2,
            "--sabotage does not apply to fig2",
        ),
        (&["--out", "x.json"], 2, "--out does not apply to all"),
        (
            &["bench", "--seed", "1"],
            2,
            "--seed does not apply to bench",
        ),
        (
            &["bench", "--batch", "auto"],
            2,
            "--batch expects `on` or `off`",
        ),
        (
            &["trace", "claims", "--json"],
            2,
            "--json does not apply to trace",
        ),
        (
            &["bench-check", "--threads", "2"],
            2,
            "--threads does not apply to bench-check",
        ),
        (
            &["lint", "--socket", "/tmp/x", "--clients", "9"],
            2,
            "--socket does not apply to lint",
        ),
        (
            &["analyze", "--out", "x.json"],
            2,
            "--out does not apply to analyze",
        ),
        (
            &["conform", "--cycles", "4"],
            2,
            "--cycles does not apply to conform",
        ),
        (&["soak", "--full"], 2, "--full does not apply to soak"),
        (&["serve", "--json"], 2, "--json does not apply to serve"),
        (
            &["storm", "--faults", "3"],
            2,
            "--faults does not apply to storm",
        ),
        (
            &["chaos", "--clients=3"],
            2,
            "--clients does not apply to chaos",
        ),
        (
            &["tune", "--faults", "banana"],
            2,
            "--faults does not apply to tune",
        ),
        (&["--deny=warn", "lint"], 0, ""),
        (&["lint", "--json", "--deny=warn"], 0, ""),
        (&["--threads=2", "fig2", "--json"], 0, ""),
        (&["trace"], 2, "trace needs an experiment"),
        (
            &["trace", "claims", "extra"],
            2,
            "unexpected argument extra",
        ),
        (&["fig2", "extra"], 2, "unexpected argument extra"),
    ];
    for (args, code, needle) in cases {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}
