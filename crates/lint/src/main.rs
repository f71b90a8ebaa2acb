//! The `tamp-lint` CLI.
//!
//! ```text
//! cargo run -p tamp-lint                 # human-readable report
//! cargo run -p tamp-lint -- --json      # machine-readable summary
//! cargo run -p tamp-lint -- --root=DIR  # scan another workspace root
//! ```
//!
//! Exit status: `0` when the workspace is clean, `1` on any violation,
//! `2` on usage errors (a `pub` item named nowhere outside its file is
//! a U1 violation). The allow-site inventory and the U1 census are
//! always printed, so the suppression budget and the unused corners of
//! the API stay visible in CI logs.

use std::path::PathBuf;

fn main() {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else if let Some(path) = arg.strip_prefix("--root=") {
            root = Some(PathBuf::from(path));
        } else {
            eprintln!("usage: tamp-lint [--json] [--root=DIR]");
            std::process::exit(2);
        }
    }
    let root = root.unwrap_or_else(tamp_lint::workspace_root);
    let report = match tamp_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tamp-lint: failed to scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    std::process::exit(i32::from(!report.is_clean()));
}
