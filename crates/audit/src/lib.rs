//! `mcd-audit` — the workspace's determinism static-analysis pass.
//!
//! Everything this reproduction claims rests on one invariant: a
//! [`SimResult`] is a pure function of *(workload, configuration, seed)*.
//! Golden dumps check that invariant dynamically for a fixed matrix;
//! this crate checks it *statically*, over all result-affecting sources,
//! so a violation fails CI before it can ever reach a golden run.  Two
//! rule families are enforced
//! (see [`Rule`]):
//!
//! 1. **Determinism lints** ([`scan_determinism`]) deny, on every
//!    result-affecting crate: `HashMap`/`HashSet` (unordered iteration
//!    can leak into results), `Instant`/`SystemTime` (host time),
//!    OS entropy (`thread_rng`/`from_entropy`/`OsRng`), and `std::env`
//!    reads (hidden configuration).  Legitimate uses are recorded in a
//!    checked-in allowlist with a justification and an occurrence count
//!    the tool re-verifies on every run.
//! 2. **Equality exclusion** ([`check_eq_exclusion`]) verifies that
//!    `SimResult`'s manual `PartialEq` compares every simulated field,
//!    that every excluded field carries an allowlist entry, and that no
//!    `HostStats` counter is referenced in the comparison — host-side
//!    telemetry can never re-enter result equality.
//!
//! The crate is dependency-free and hand-rolls its comment/string
//! stripping ([`lexer`]), in keeping with the workspace's vendored,
//! offline setup.
//!
//! [`SimResult`]: ../mcd_sim/struct.SimResult.html

pub mod lexer;

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use lexer::{blank_test_modules, is_ident_char, line_of, strip_comments_and_strings};

/// The crates whose sources can affect a `SimResult` and are therefore
/// subject to the determinism lints.  `mcd-bench` (reporting harness)
/// and this crate are excluded; `crates/core` is included wholesale —
/// its engine/runner/cache modules all sit on the result path.
pub const RESULT_AFFECTING_ROOTS: &[&str] = &[
    "crates/clock/src",
    "crates/control/src",
    "crates/core/src",
    "crates/isa/src",
    "crates/microarch/src",
    "crates/power/src",
    "crates/sim/src",
    "crates/workloads/src",
    "src",
];

/// One audited rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` on a result-affecting path: unordered
    /// iteration order can leak into results.
    HashIteration,
    /// `Instant`/`SystemTime` outside host-telemetry allowlist sites.
    WallClock,
    /// OS entropy sources (`thread_rng`, `from_entropy`, `OsRng`).
    OsEntropy,
    /// `std::env` reads outside the documented knob sites.
    EnvRead,
    /// `SimResult` equality drift: uncompped field, or a host counter
    /// re-entering the comparison.
    EqExclusion,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 5] = [
        Rule::HashIteration,
        Rule::WallClock,
        Rule::OsEntropy,
        Rule::EnvRead,
        Rule::EqExclusion,
    ];

    /// The rule's stable name, as used in the allowlist file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::WallClock => "wall-clock",
            Rule::OsEntropy => "os-entropy",
            Rule::EnvRead => "env-read",
            Rule::EqExclusion => "eq-exclusion",
        }
    }

    /// Parses an allowlist rule name.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One source file under audit, with a workspace-relative path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/sim/src/processor.rs`).
    pub path: String,
    /// The file's text.
    pub text: String,
}

/// One unclassified (or stale-allowlist) finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file, or the struct name for the structural
    /// rules.
    pub scope: String,
    /// The offending token / field.
    pub item: String,
    /// 1-based line (0 for structural findings without a single site).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "[{}] {}:{}: {} — {}",
                self.rule, self.scope, self.line, self.item, self.message
            )
        } else {
            write!(
                f,
                "[{}] {}: {} — {}",
                self.rule, self.scope, self.item, self.message
            )
        }
    }
}

/// One parsed allowlist entry.
///
/// The file format is line-oriented:
///
/// ```text
/// # comment
/// rule | scope | item | justification
/// ```
///
/// For the determinism rules, `scope` is the workspace-relative file and
/// `item` is `token xCOUNT` (e.g. `Instant x3`) — the tool re-counts
/// occurrences on every run and rejects the entry when the count drifts,
/// so an allowlisted file cannot silently grow new uses.  For
/// `eq-exclusion`, `scope` is `SimResult` and `item` the excluded field.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule family the entry covers.
    pub rule: Rule,
    /// File path (determinism rules) or struct name (structural rules).
    pub scope: String,
    /// Token name (determinism) or field name (structural).
    pub item: String,
    /// Expected occurrence count (determinism rules only).
    pub count: Option<usize>,
    /// One-line justification; must be non-empty.
    pub justification: String,
    /// 1-based line in the allowlist file, for error messages.
    pub line: usize,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format described on [`AllowEntry`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split('|').map(str::trim).collect();
            if parts.len() != 4 {
                return Err(format!(
                    "allowlist line {}: expected `rule | scope | item | justification`, got {:?}",
                    idx + 1,
                    raw
                ));
            }
            let rule = Rule::parse(parts[0]).ok_or_else(|| {
                format!("allowlist line {}: unknown rule {:?}", idx + 1, parts[0])
            })?;
            if parts[3].is_empty() {
                return Err(format!(
                    "allowlist line {}: empty justification (every entry must say why)",
                    idx + 1
                ));
            }
            let (item, count) = match parts[1 + 1].rsplit_once(" x") {
                Some((tok, n)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    (tok.to_string(), Some(n.parse().expect("digits parse")))
                }
                _ => (parts[2].to_string(), None),
            };
            entries.push(AllowEntry {
                rule,
                scope: parts[1].to_string(),
                item,
                count,
                justification: parts[3].to_string(),
                line: idx + 1,
            });
        }
        Ok(Allowlist { entries })
    }

    /// The entries of one rule family.
    pub fn of(&self, rule: Rule) -> impl Iterator<Item = &AllowEntry> {
        self.entries.iter().filter(move |e| e.rule == rule)
    }

    fn lookup(&self, rule: Rule, scope: &str, item: &str) -> Option<&AllowEntry> {
        self.entries
            .iter()
            .find(|e| e.rule == rule && e.scope == scope && e.item == item)
    }
}

/// Per-rule counters for the report table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounts {
    /// Total occurrences the rule matched (allowlisted or not).
    pub findings: usize,
    /// Occurrences covered by a valid allowlist entry.
    pub allowlisted: usize,
    /// Occurrences with no (valid) allowlist cover.
    pub unclassified: usize,
}

/// The outcome of a full audit pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Unclassified findings (empty on a clean workspace).
    pub findings: Vec<Finding>,
    /// Stale-allowlist diagnostics: entries matching nothing, or whose
    /// occurrence count no longer matches the source.
    pub stale: Vec<String>,
    /// Per-rule counters.
    pub counts: BTreeMap<Rule, RuleCounts>,
}

impl Report {
    /// Whether the pass found nothing to act on.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }

    fn count(&mut self, rule: Rule) -> &mut RuleCounts {
        self.counts.entry(rule).or_default()
    }

    /// Renders the per-rule summary as a Markdown table (used verbatim
    /// on the CI job-summary page).
    pub fn render_table(&self) -> String {
        let mut s =
            String::from("| rule | findings | allowlisted | unclassified |\n|---|---|---|---|\n");
        for rule in Rule::ALL {
            let c = self.counts.get(&rule).copied().unwrap_or_default();
            s.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                rule, c.findings, c.allowlisted, c.unclassified
            ));
        }
        s.push_str(&format!(
            "\nstale allowlist entries: {}\nunclassified findings: {}\n",
            self.stale.len(),
            self.findings.len()
        ));
        s
    }
}

/// Cleans one file for scanning: comments and literals blanked, test
/// modules removed.
pub fn clean(text: &str) -> String {
    blank_test_modules(&strip_comments_and_strings(text))
}

// ---------------------------------------------------------------------
// Rule family 1: determinism lints.
// ---------------------------------------------------------------------

const HASH_TOKENS: &[&str] = &["HashMap", "HashSet"];
const CLOCK_TOKENS: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_TOKENS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Scans `files` (already workspace-relative) with the determinism
/// rules, classifying occurrences against `allow`.  Appends unclassified
/// findings and stale-entry diagnostics to `report`.
pub fn scan_determinism(files: &[SourceFile], allow: &Allowlist, report: &mut Report) {
    // (rule, file, token) -> (count, first lines)
    let mut groups: BTreeMap<(Rule, String, String), (usize, Vec<usize>)> = BTreeMap::new();
    for f in files {
        let cleaned = clean(&f.text);
        let mut note = |rule: Rule, token: &str, lines: Vec<usize>| {
            if lines.is_empty() {
                return;
            }
            let e = groups
                .entry((rule, f.path.clone(), token.to_string()))
                .or_default();
            e.0 += lines.len();
            e.1.extend(lines);
        };
        for &t in HASH_TOKENS {
            note(Rule::HashIteration, t, ident_occurrences(&cleaned, t));
        }
        for &t in CLOCK_TOKENS {
            note(Rule::WallClock, t, ident_occurrences(&cleaned, t));
        }
        for &t in ENTROPY_TOKENS {
            note(Rule::OsEntropy, t, ident_occurrences(&cleaned, t));
        }
        note(
            Rule::EnvRead,
            "std::env",
            path_occurrences(&cleaned, &["std", "env"]),
        );
    }

    let mut used: Vec<(Rule, String, String)> = Vec::new();
    for ((rule, file, token), (count, lines)) in &groups {
        report.count(*rule).findings += count;
        match allow.lookup(*rule, file, token) {
            Some(entry) if entry.count == Some(*count) => {
                report.count(*rule).allowlisted += count;
                used.push((*rule, file.clone(), token.clone()));
            }
            Some(entry) => {
                report.count(*rule).unclassified += count;
                used.push((*rule, file.clone(), token.clone()));
                report.stale.push(format!(
                    "allowlist line {}: `{}` in {} occurs {} time(s) but the entry expects {} — re-audit the file and update the count",
                    entry.line, token, file, count,
                    entry.count.map_or("?".to_string(), |c| c.to_string()),
                ));
            }
            None => {
                report.count(*rule).unclassified += count;
                for &line in lines {
                    report.findings.push(Finding {
                        rule: *rule,
                        scope: file.clone(),
                        item: token.clone(),
                        line,
                        message: match rule {
                            Rule::HashIteration => "unordered container on a result-affecting path; use BTreeMap/BTreeSet or an indexed structure, or allowlist with a justification".into(),
                            Rule::WallClock => "host clock on a result-affecting path; only HostStats telemetry sites may read time".into(),
                            Rule::OsEntropy => "OS entropy on a result-affecting path; all randomness must come from the seeded generators".into(),
                            Rule::EnvRead => "environment read outside the documented knob sites; results must not depend on hidden configuration".into(),
                            _ => unreachable!("determinism scan emits determinism rules only"),
                        },
                    });
                }
            }
        }
    }
    // Entries that matched nothing are stale (e.g. the use was removed).
    for rule in [
        Rule::HashIteration,
        Rule::WallClock,
        Rule::OsEntropy,
        Rule::EnvRead,
    ] {
        for entry in allow.of(rule) {
            let key = (rule, entry.scope.clone(), entry.item.clone());
            if !used.contains(&key) {
                report.stale.push(format!(
                    "allowlist line {}: no `{}` occurrences in {} — delete the entry",
                    entry.line, entry.item, entry.scope
                ));
            }
        }
    }
}

/// 1-based lines of every occurrence of identifier `name` in `cleaned`
/// (word-boundary exact matches only: `Instant` does not match
/// `Instantaneous`).
fn ident_occurrences(cleaned: &str, name: &str) -> Vec<usize> {
    let b = cleaned.as_bytes();
    let mut lines = Vec::new();
    let mut from = 0;
    while let Some(rel) = cleaned[from..].find(name) {
        let at = from + rel;
        let end = at + name.len();
        let left_ok = at == 0 || !is_ident_char(b[at - 1]);
        let right_ok = end >= b.len() || !is_ident_char(b[end]);
        if left_ok && right_ok {
            lines.push(line_of(cleaned, at));
        }
        from = end;
    }
    lines
}

/// 1-based lines of every occurrence of the path `segments[0] ::
/// segments[1] …` (whitespace-tolerant) in `cleaned`.
fn path_occurrences(cleaned: &str, segments: &[&str]) -> Vec<usize> {
    let first = segments[0];
    let b = cleaned.as_bytes();
    let mut lines = Vec::new();
    for at in ident_occurrences_offsets(cleaned, first) {
        let mut pos = at + first.len();
        let mut ok = true;
        for seg in &segments[1..] {
            while pos < b.len() && (b[pos] as char).is_whitespace() {
                pos += 1;
            }
            if !cleaned[pos..].starts_with("::") {
                ok = false;
                break;
            }
            pos += 2;
            while pos < b.len() && (b[pos] as char).is_whitespace() {
                pos += 1;
            }
            if !cleaned[pos..].starts_with(seg)
                || (pos + seg.len() < b.len() && is_ident_char(b[pos + seg.len()]))
            {
                ok = false;
                break;
            }
            pos += seg.len();
        }
        if ok {
            lines.push(line_of(cleaned, at));
        }
    }
    lines
}

fn ident_occurrences_offsets(cleaned: &str, name: &str) -> Vec<usize> {
    let b = cleaned.as_bytes();
    let mut offs = Vec::new();
    let mut from = 0;
    while let Some(rel) = cleaned[from..].find(name) {
        let at = from + rel;
        let end = at + name.len();
        if (at == 0 || !is_ident_char(b[at - 1])) && (end >= b.len() || !is_ident_char(b[end])) {
            offs.push(at);
        }
        from = end;
    }
    offs
}

// ---------------------------------------------------------------------
// Structural parsing for rule family 2.
// ---------------------------------------------------------------------

/// The named fields of `struct name { … }` in `cleaned` text, with their
/// 1-based lines.  Handles the workspace's style (named-field structs,
/// attributes, generics-free field types with nested angle brackets).
pub fn struct_fields(cleaned: &str, name: &str) -> Option<Vec<(String, usize)>> {
    let decl = format!("struct {name}");
    let mut search = 0;
    let at = loop {
        let rel = cleaned[search..].find(&decl)?;
        let at = search + rel;
        let end = at + decl.len();
        // Exact-name match: `struct Phase` must not match `struct PhaseSpec`.
        if cleaned[end..].starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            search = end;
            continue;
        }
        break at;
    };
    // A tuple/unit struct has no brace before the `;`.
    let brace = at + cleaned[at..].find('{')?;
    if let Some(semi) = cleaned[at..brace].find(';') {
        let _ = semi;
        return Some(Vec::new());
    }
    let body_end = matching_brace(cleaned, brace)?;
    let body = &cleaned[brace + 1..body_end];
    let mut fields = Vec::new();
    let b = body.as_bytes();
    let mut depth = 0usize; // nesting inside field types / attributes
    let mut i = 0;
    let mut expecting_field = true;
    while i < b.len() {
        match b[i] {
            b'{' | b'(' | b'[' | b'<' => {
                depth += 1;
                i += 1;
            }
            b'}' | b')' | b']' | b'>' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'#' if depth == 0 => {
                // Attribute: skip the bracket group.
                while i < b.len() && b[i] != b'[' {
                    i += 1;
                }
                let mut d = 0;
                while i < b.len() {
                    if b[i] == b'[' {
                        d += 1;
                    } else if b[i] == b']' {
                        d -= 1;
                        if d == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
            b',' if depth == 0 => {
                expecting_field = true;
                i += 1;
            }
            c if depth == 0 && expecting_field && is_ident_char(c) => {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                let word = &body[start..i];
                if word == "pub" || word == "crate" || word == "in" {
                    continue;
                }
                // A field name is followed by `:` (tolerate whitespace).
                let mut j = i;
                while j < b.len() && (b[j] as char).is_whitespace() {
                    j += 1;
                }
                if j < b.len() && b[j] == b':' && !body[j..].starts_with("::") {
                    let line = line_of(cleaned, brace + 1 + start);
                    fields.push((word.to_string(), line));
                    expecting_field = false;
                }
            }
            _ => i += 1,
        }
    }
    Some(fields)
}

/// Byte offset of the `}` matching the `{` at `open`.
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let b = text.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// All identifiers appearing in the signature and body of `fn name` in
/// `cleaned` (the first definition found).
pub fn fn_identifiers(cleaned: &str, name: &str) -> Option<Vec<String>> {
    let decl = format!("fn {name}");
    let mut search = 0;
    let at = loop {
        let rel = cleaned[search..].find(&decl)?;
        let at = search + rel;
        let end = at + decl.len();
        if cleaned[end..].starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            search = end;
            continue;
        }
        break at;
    };
    let brace = at + cleaned[at..].find('{')?;
    let end = matching_brace(cleaned, brace)?;
    let region = &cleaned[at..=end];
    let mut idents = Vec::new();
    let b = region.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if is_ident_char(b[i]) && !b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            idents.push(region[start..i].to_string());
        } else {
            i += 1;
        }
    }
    Some(idents)
}

// ---------------------------------------------------------------------
// Rule family 2: SimResult equality exclusion.
// ---------------------------------------------------------------------

/// Verifies the `SimResult`/`HostStats` equality contract inside
/// `telemetry_file` (see the module docs): every `result_struct` field
/// is compared in `impl PartialEq` unless an `eq-exclusion` allowlist
/// entry excludes it, excluded fields never appear in the comparison,
/// and no field of `host_struct` is referenced by the comparison at all.
pub fn check_eq_exclusion(
    files: &[SourceFile],
    telemetry_file: &str,
    result_struct: &str,
    host_struct: &str,
    allow: &Allowlist,
    report: &mut Report,
) {
    let Some(src) = files.iter().find(|f| f.path == telemetry_file) else {
        report.findings.push(Finding {
            rule: Rule::EqExclusion,
            scope: telemetry_file.to_string(),
            item: "<file>".into(),
            line: 0,
            message: "telemetry file not found".into(),
        });
        report.count(Rule::EqExclusion).findings += 1;
        report.count(Rule::EqExclusion).unclassified += 1;
        return;
    };
    let cleaned = clean(&src.text);
    let (Some(result_fields), Some(host_fields)) = (
        struct_fields(&cleaned, result_struct),
        struct_fields(&cleaned, host_struct),
    ) else {
        report.findings.push(Finding {
            rule: Rule::EqExclusion,
            scope: result_struct.to_string(),
            item: "<struct>".into(),
            line: 0,
            message: format!("{result_struct} or {host_struct} not found in {telemetry_file}"),
        });
        report.count(Rule::EqExclusion).findings += 1;
        report.count(Rule::EqExclusion).unclassified += 1;
        return;
    };
    // The eq body: the first `fn eq` after `impl PartialEq for <result>`.
    let eq_ids: Vec<String> = cleaned
        .find(&format!("impl PartialEq for {result_struct}"))
        .and_then(|at| fn_identifiers(&cleaned[at..], "eq"))
        .unwrap_or_default();
    if eq_ids.is_empty() {
        report.findings.push(Finding {
            rule: Rule::EqExclusion,
            scope: result_struct.to_string(),
            item: "eq".into(),
            line: 0,
            message: format!(
                "no manual `impl PartialEq for {result_struct}` found — a derived PartialEq would compare host telemetry"
            ),
        });
        report.count(Rule::EqExclusion).findings += 1;
        report.count(Rule::EqExclusion).unclassified += 1;
        return;
    }

    let mut used: Vec<String> = Vec::new();
    for (field, line) in &result_fields {
        report.count(Rule::EqExclusion).findings += 1;
        let compared = eq_ids.iter().any(|id| id == field);
        let excluded = allow
            .lookup(Rule::EqExclusion, result_struct, field)
            .is_some();
        match (compared, excluded) {
            (true, false) => report.count(Rule::EqExclusion).allowlisted += 1,
            (false, true) => {
                report.count(Rule::EqExclusion).allowlisted += 1;
                used.push(field.clone());
            }
            (false, false) => {
                report.count(Rule::EqExclusion).unclassified += 1;
                report.findings.push(Finding {
                    rule: Rule::EqExclusion,
                    scope: result_struct.to_string(),
                    item: field.clone(),
                    line: *line,
                    message: "field is neither compared in PartialEq nor excluded by an allowlist entry — result equality silently ignores it".into(),
                });
            }
            (true, true) => {
                used.push(field.clone());
                report.count(Rule::EqExclusion).unclassified += 1;
                report.findings.push(Finding {
                    rule: Rule::EqExclusion,
                    scope: result_struct.to_string(),
                    item: field.clone(),
                    line: *line,
                    message: "field is allowlisted as equality-excluded but IS referenced by PartialEq — host telemetry re-entered result comparisons".into(),
                });
            }
        }
    }
    // No host counter may be referenced in the comparison, under any
    // name: the exclusion set must cover the whole of HostStats.
    for (field, line) in &host_fields {
        report.count(Rule::EqExclusion).findings += 1;
        if eq_ids.iter().any(|id| id == field) {
            report.count(Rule::EqExclusion).unclassified += 1;
            report.findings.push(Finding {
                rule: Rule::EqExclusion,
                scope: host_struct.to_string(),
                item: field.clone(),
                line: *line,
                message: format!(
                    "host-side counter referenced inside {result_struct}'s PartialEq — host telemetry must stay excluded from result equality"
                ),
            });
        } else {
            report.count(Rule::EqExclusion).allowlisted += 1;
        }
    }
    for entry in allow.of(Rule::EqExclusion) {
        if entry.scope == result_struct && !used.contains(&entry.item) {
            report.stale.push(format!(
                "allowlist line {}: {}.{} does not exist — delete the entry",
                entry.line, entry.scope, entry.item
            ));
        }
    }
}

// ---------------------------------------------------------------------
// The workspace binding: what the `mcd-audit` binary (and the
// self-check test) audit.
// ---------------------------------------------------------------------

/// The file holding `SimResult`/`HostStats` and the manual `PartialEq`.
pub const TELEMETRY_FILE: &str = "crates/sim/src/telemetry.rs";

/// Reads every `.rs` file under the result-affecting roots of `root`.
///
/// # Errors
///
/// Returns the first I/O error, tagged with its path.
pub fn load_workspace_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for rel in RESULT_AFFECTING_ROOTS {
        collect_rs(root, Path::new(rel), &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn collect_rs(root: &Path, rel: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let abs = root.join(rel);
    let entries = std::fs::read_dir(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", abs.display()))?;
        let path = entry.path();
        let rel_child = rel.join(entry.file_name());
        if path.is_dir() {
            collect_rs(root, &rel_child, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(SourceFile {
                path: rel_child
                    .to_str()
                    .ok_or_else(|| format!("non-UTF-8 path {}", rel_child.display()))?
                    .replace('\\', "/"),
                text,
            });
        }
    }
    Ok(())
}

/// Runs the complete audit over the workspace at `root` with the given
/// allowlist text.
///
/// # Errors
///
/// Returns a message when sources cannot be read or the allowlist is
/// malformed.
pub fn audit_workspace(root: &Path, allowlist_text: &str) -> Result<Report, String> {
    let files = load_workspace_sources(root)?;
    let allow = Allowlist::parse(allowlist_text)?;
    let mut report = Report::default();
    scan_determinism(&files, &allow, &mut report);
    check_eq_exclusion(
        &files,
        TELEMETRY_FILE,
        "SimResult",
        "HostStats",
        &allow,
        &mut report,
    );
    Ok(report)
}

/// The workspace-relative location of the checked-in allowlist.
pub const ALLOWLIST_PATH: &str = "crates/audit/allowlist.txt";
