//! `mcd-audit` binary: run the determinism audit over the
//! workspace and print a per-rule summary (Markdown, suitable for the
//! CI job-summary page).
//!
//! ```text
//! cargo run -p mcd-audit --          # report only, exit 0
//! cargo run -p mcd-audit -- --deny   # exit 2 on unclassified/stale
//! cargo run -p mcd-audit -- --root <path>   # audit another checkout
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("mcd-audit: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("mcd-audit: unknown argument {other:?} (expected --deny / --root)");
                return ExitCode::from(2);
            }
        }
    }

    let allowlist_path = root.join(mcd_audit::ALLOWLIST_PATH);
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcd-audit: cannot read {}: {e}", allowlist_path.display());
            return ExitCode::from(2);
        }
    };
    let report = match mcd_audit::audit_workspace(&root, &allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mcd-audit: {e}");
            return ExitCode::from(2);
        }
    };

    println!("### mcd-audit — determinism static analysis\n");
    println!("{}", report.render_table());
    if !report.findings.is_empty() {
        println!("#### Unclassified findings\n");
        for f in &report.findings {
            println!("- {f}");
        }
        println!();
    }
    if !report.stale.is_empty() {
        println!("#### Stale allowlist entries\n");
        for s in &report.stale {
            println!("- {s}");
        }
        println!();
    }
    if report.is_clean() {
        println!("workspace clean: every finding is fixed or justified.");
        ExitCode::SUCCESS
    } else if deny {
        eprintln!(
            "mcd-audit: {} unclassified finding(s), {} stale allowlist entr(ies) — failing (--deny)",
            report.findings.len(),
            report.stale.len()
        );
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
