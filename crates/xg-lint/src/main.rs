//! CLI for the workspace determinism linter.
//!
//! ```text
//! xg-lint [--root DIR] [--show-waived] [--rules]
//! ```
//!
//! Exit status: 0 when every finding is covered by a reasoned waiver,
//! 1 otherwise, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use xg_lint::{lint_root, Config, Rule, RULES_VERSION};

struct Args {
    root: PathBuf,
    show_waived: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        show_waived: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = PathBuf::from(v);
            }
            "--show-waived" => args.show_waived = true,
            "--rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: xg-lint [--root DIR] [--show-waived] [--rules]".to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        println!("{RULES_VERSION}");
        for rule in Rule::all() {
            println!("  {:<16} {}", rule.name(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    let report = match lint_root(&args.root, &Config::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xg-lint: cannot scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_human(args.show_waived));
    if report.unwaived_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
