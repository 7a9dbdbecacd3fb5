//! Fixture tests: every audit rule must provably fire on a seeded
//! violation, stay quiet on clean code, and respect (but re-verify) the
//! allowlist.  A final self-check audits the real workspace with the
//! checked-in allowlist — the same invocation CI gates on.

use std::path::Path;

use mcd_audit::{
    audit_workspace, check_cache_key, check_eq_exclusion, scan_determinism, Allowlist, KeyStruct,
    Report, Rule, SourceFile, ALLOWLIST_PATH,
};

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

fn empty_allow() -> Allowlist {
    Allowlist::parse("").expect("empty allowlist parses")
}

fn determinism_report(files: &[SourceFile], allow: &Allowlist) -> Report {
    let mut report = Report::default();
    scan_determinism(files, allow, &mut report);
    report
}

// ---------------------------------------------------------------------
// Rule family 1: determinism lints fire on seeded violations.
// ---------------------------------------------------------------------

#[test]
fn hash_iteration_fires_on_hashmap() {
    let files = [file(
        "crates/sim/src/bad.rs",
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
    )];
    let report = determinism_report(&files, &empty_allow());
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::HashIteration)
        .collect();
    assert_eq!(hits.len(), 3, "one finding per occurrence: {report:?}");
    assert_eq!(hits[0].scope, "crates/sim/src/bad.rs");
    assert_eq!(hits[0].item, "HashMap");
    assert_eq!(hits[0].line, 1);
    assert_eq!(hits[1].line, 2);
}

#[test]
fn wall_clock_fires_on_instant_and_systemtime() {
    let files = [file(
        "crates/clock/src/bad.rs",
        "use std::time::{Instant, SystemTime};\nfn f() { let _ = Instant::now(); }\n",
    )];
    let report = determinism_report(&files, &empty_allow());
    let instants = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::WallClock && f.item == "Instant")
        .count();
    let systimes = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::WallClock && f.item == "SystemTime")
        .count();
    assert_eq!(instants, 2);
    assert_eq!(systimes, 1);
}

#[test]
fn os_entropy_fires_on_thread_rng() {
    let files = [file(
        "crates/workloads/src/bad.rs",
        "fn f() { let mut rng = rand::thread_rng(); }\n",
    )];
    let report = determinism_report(&files, &empty_allow());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::OsEntropy && f.item == "thread_rng" && f.line == 1),
        "{report:?}"
    );
}

#[test]
fn env_read_fires_on_std_env() {
    let files = [file(
        "crates/core/src/bad.rs",
        "fn f() -> Option<String> { std::env::var(\"SECRET_KNOB\").ok() }\n",
    )];
    let report = determinism_report(&files, &empty_allow());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::EnvRead && f.item == "std::env" && f.line == 1),
        "{report:?}"
    );
}

// ---------------------------------------------------------------------
// Immunity: comments, strings and test modules never produce findings.
// ---------------------------------------------------------------------

#[test]
fn comments_strings_and_test_modules_are_immune() {
    let files = [file(
        "crates/sim/src/clean.rs",
        concat!(
            "// HashMap in a comment, Instant too\n",
            "/* block: thread_rng, std::env */\n",
            "fn f() -> &'static str { \"HashMap Instant std::env\" }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashMap;\n",
            "    use std::time::Instant;\n",
            "    fn g() { let _ = std::env::var(\"X\"); }\n",
            "}\n",
        ),
    )];
    let report = determinism_report(&files, &empty_allow());
    assert!(report.findings.is_empty(), "{report:?}");
    assert!(report.stale.is_empty());
}

// ---------------------------------------------------------------------
// Allowlist semantics: exact counts are re-verified every run.
// ---------------------------------------------------------------------

#[test]
fn allowlisted_occurrences_with_matching_count_are_clean() {
    let files = [file(
        "crates/sim/src/telemetry_site.rs",
        "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n",
    )];
    let allow = Allowlist::parse(
        "wall-clock | crates/sim/src/telemetry_site.rs | Instant x2 | host telemetry only\n",
    )
    .unwrap();
    let report = determinism_report(&files, &allow);
    assert!(report.is_clean(), "{report:?}");
    let counts = report.counts[&Rule::WallClock];
    assert_eq!(
        (counts.findings, counts.allowlisted, counts.unclassified),
        (2, 2, 0)
    );
}

#[test]
fn allowlist_count_drift_is_stale() {
    // The entry says x1 but the file has grown a second use.
    let files = [file(
        "crates/sim/src/telemetry_site.rs",
        "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n",
    )];
    let allow = Allowlist::parse(
        "wall-clock | crates/sim/src/telemetry_site.rs | Instant x1 | host telemetry only\n",
    )
    .unwrap();
    let report = determinism_report(&files, &allow);
    assert!(!report.is_clean());
    assert_eq!(report.stale.len(), 1, "{report:?}");
    assert!(
        report.stale[0].contains("occurs 2 time(s)"),
        "{}",
        report.stale[0]
    );
}

#[test]
fn allowlist_entry_matching_nothing_is_stale() {
    let files = [file("crates/sim/src/ok.rs", "fn f() {}\n")];
    let allow =
        Allowlist::parse("wall-clock | crates/sim/src/ok.rs | Instant x1 | removed long ago\n")
            .unwrap();
    let report = determinism_report(&files, &allow);
    assert!(!report.is_clean());
    assert!(
        report.stale[0].contains("no `Instant` occurrences"),
        "{}",
        report.stale[0]
    );
}

#[test]
fn malformed_allowlist_lines_are_rejected() {
    assert!(Allowlist::parse("wall-clock | too | few\n").is_err());
    assert!(Allowlist::parse("no-such-rule | a | b | c\n").is_err());
    assert!(
        Allowlist::parse("wall-clock | a.rs | Instant x1 | \n").is_err(),
        "empty justification must be rejected"
    );
}

// ---------------------------------------------------------------------
// Rule family 2: cache-key completeness.
// ---------------------------------------------------------------------

const HASH_SITE: &str = r#"
pub fn hash_key_into(h: &mut StableHasher, cfg: &KeyCfg) {
    h.write_u64(cfg.seed);
    h.write_u64(cfg.budget);
}
"#;

fn key_cfg_file(extra_field: &str) -> SourceFile {
    file(
        "crates/fake/src/cfg.rs",
        &format!(
            "pub struct KeyCfg {{\n    pub seed: u64,\n    pub budget: u64,\n{extra_field}}}\n"
        ),
    )
}

fn key_structs() -> Vec<KeyStruct> {
    vec![KeyStruct {
        file: "crates/fake/src/cfg.rs".into(),
        name: "KeyCfg".into(),
    }]
}

#[test]
fn cache_key_clean_when_all_fields_hashed() {
    let files = [key_cfg_file(""), file("crates/fake/src/hash.rs", HASH_SITE)];
    let mut report = Report::default();
    check_cache_key(
        &files,
        &key_structs(),
        "crates/fake/src/hash.rs",
        &["hash_key_into"],
        &empty_allow(),
        &mut report,
    );
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn cache_key_fires_on_synthetic_unhashed_field() {
    // The acceptance scenario: a behaviour-affecting field is added to a
    // key struct without extending the hash — the audit must fail.
    let files = [
        key_cfg_file("    pub new_knob: f64,\n"),
        file("crates/fake/src/hash.rs", HASH_SITE),
    ];
    let mut report = Report::default();
    check_cache_key(
        &files,
        &key_structs(),
        "crates/fake/src/hash.rs",
        &["hash_key_into"],
        &empty_allow(),
        &mut report,
    );
    assert!(!report.is_clean());
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::CacheKey && f.item == "new_knob")
        .expect("unhashed field must be reported");
    assert_eq!(f.scope, "KeyCfg");
    assert_eq!(f.line, 4, "field line in the definition file");
    assert!(f.message.contains("KEY_VERSION"));
}

#[test]
fn cache_key_allowlist_covers_non_behavioural_fields() {
    let files = [
        key_cfg_file("    pub progress_bar: bool,\n"),
        file("crates/fake/src/hash.rs", HASH_SITE),
    ];
    let allow = Allowlist::parse(
        "cache-key | KeyCfg | progress_bar | presentation only, never reaches a run\n",
    )
    .unwrap();
    let mut report = Report::default();
    check_cache_key(
        &files,
        &key_structs(),
        "crates/fake/src/hash.rs",
        &["hash_key_into"],
        &allow,
        &mut report,
    );
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn cache_key_stale_entry_for_hashed_field() {
    // `seed` IS hashed; an allowlist entry claiming it is non-behavioural
    // is stale and must be flagged for deletion.
    let files = [key_cfg_file(""), file("crates/fake/src/hash.rs", HASH_SITE)];
    let allow = Allowlist::parse("cache-key | KeyCfg | seed | stale claim\n").unwrap();
    let mut report = Report::default();
    check_cache_key(
        &files,
        &key_structs(),
        "crates/fake/src/hash.rs",
        &["hash_key_into"],
        &allow,
        &mut report,
    );
    assert!(!report.is_clean());
    assert!(
        report.stale[0].contains("KeyCfg.seed"),
        "{}",
        report.stale[0]
    );
}

#[test]
fn cache_key_fires_on_missing_hash_fn() {
    let files = [key_cfg_file(""), file("crates/fake/src/hash.rs", HASH_SITE)];
    let mut report = Report::default();
    check_cache_key(
        &files,
        &key_structs(),
        "crates/fake/src/hash.rs",
        &["renamed_hash_fn"],
        &empty_allow(),
        &mut report,
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::CacheKey && f.item == "renamed_hash_fn"),
        "renaming a hash function must break the audit: {report:?}"
    );
}

// ---------------------------------------------------------------------
// Rule family 3: equality exclusion.
// ---------------------------------------------------------------------

fn telemetry_fixture(eq_body: &str, extra_result_field: &str) -> SourceFile {
    file(
        "crates/fake/src/telemetry.rs",
        &format!(
            concat!(
                "pub struct Host {{\n    pub wall: f64,\n    pub mips: f64,\n}}\n",
                "pub struct Res {{\n    pub insts: u64,\n    pub cycles: u64,\n",
                "{extra}",
                "    pub host: Host,\n}}\n",
                "impl PartialEq for Res {{\n    fn eq(&self, o: &Self) -> bool {{\n        {body}\n    }}\n}}\n",
            ),
            extra = extra_result_field,
            body = eq_body,
        ),
    )
}

fn eq_report(src: SourceFile, allow: &Allowlist) -> Report {
    let files = [src];
    let mut report = Report::default();
    check_eq_exclusion(
        &files,
        "crates/fake/src/telemetry.rs",
        "Res",
        "Host",
        allow,
        &mut report,
    );
    report
}

#[test]
fn eq_exclusion_clean_when_contract_holds() {
    let allow = Allowlist::parse("eq-exclusion | Res | host | host telemetry\n").unwrap();
    let report = eq_report(
        telemetry_fixture("self.insts == o.insts && self.cycles == o.cycles", ""),
        &allow,
    );
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn eq_exclusion_fires_on_uncompared_field() {
    // `cycles` silently dropped from the comparison: two different
    // results would compare equal.
    let allow = Allowlist::parse("eq-exclusion | Res | host | host telemetry\n").unwrap();
    let report = eq_report(telemetry_fixture("self.insts == o.insts", ""), &allow);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::EqExclusion && f.item == "cycles")
        .expect("uncompared field must be reported");
    assert!(f.message.contains("neither compared"));
}

#[test]
fn eq_exclusion_fires_when_host_field_reenters_equality() {
    // `host.wall` referenced inside eq: host telemetry re-entered result
    // comparisons.  Fires both as "excluded field referenced" (host) and
    // as a host-counter reference (wall).
    let allow = Allowlist::parse("eq-exclusion | Res | host | host telemetry\n").unwrap();
    let report = eq_report(
        telemetry_fixture(
            "self.insts == o.insts && self.cycles == o.cycles && self.host.wall == o.host.wall",
            "",
        ),
        &allow,
    );
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.item == "host" && f.message.contains("IS referenced")),
        "{report:?}"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.scope == "Host" && f.item == "wall"),
        "{report:?}"
    );
}

#[test]
fn eq_exclusion_fires_on_derived_partial_eq() {
    let src = file(
        "crates/fake/src/telemetry.rs",
        "pub struct Host { pub wall: f64 }\n#[derive(PartialEq)]\npub struct Res { pub insts: u64, pub host: Host }\n",
    );
    let report = eq_report(src, &empty_allow());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("no manual `impl PartialEq")),
        "a derived PartialEq would compare host telemetry: {report:?}"
    );
}

// ---------------------------------------------------------------------
// The real workspace, with the real allowlist — the CI gate.
// ---------------------------------------------------------------------

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn real_workspace_is_clean_under_checked_in_allowlist() {
    let root = workspace_root();
    let allow_text =
        std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("checked-in allowlist readable");
    let report = audit_workspace(root, &allow_text).expect("audit runs");
    assert!(
        report.is_clean(),
        "workspace audit must be clean; run `cargo run -p mcd-audit` for details:\n{}\n{:#?}\n{:#?}",
        report.render_table(),
        report.findings,
        report.stale
    );
}

#[test]
fn real_workspace_audit_fails_on_synthetic_unhashed_field() {
    // End-to-end version of the acceptance scenario: inject a synthetic
    // behaviour-affecting field into the real MemoryBehavior source and
    // re-run the full structural check against the real hash site.
    let root = workspace_root();
    let mut files = mcd_audit::load_workspace_sources(root).expect("sources readable");
    let spec = files
        .iter_mut()
        .find(|f| f.path == "crates/workloads/src/spec.rs")
        .expect("spec.rs is audited");
    let needle = "pub struct MemoryBehavior {";
    let at = spec.text.find(needle).expect("MemoryBehavior found");
    spec.text.insert_str(
        at + needle.len(),
        "\n    pub synthetic_behaviour_knob: f64,",
    );

    let allow_text =
        std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("checked-in allowlist readable");
    let allow = Allowlist::parse(&allow_text).expect("allowlist parses");
    let mut report = Report::default();
    check_cache_key(
        &files,
        &mcd_audit::workspace_key_structs(),
        mcd_audit::HASH_FILE,
        mcd_audit::HASH_FNS,
        &allow,
        &mut report,
    );
    assert!(
        report.findings.iter().any(|f| f.rule == Rule::CacheKey
            && f.scope == "MemoryBehavior"
            && f.item == "synthetic_behaviour_knob"),
        "an unhashed behaviour-affecting field must fail the audit: {report:?}"
    );
}
