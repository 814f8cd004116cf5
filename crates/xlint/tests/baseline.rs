//! The workspace scan is clean: every finding is fixed or carries a
//! waiver, so `gridrm-lint --check` (and CI) stays green.

use gridrm_xlint::{scan_workspace, Config};
use std::path::Path;

#[test]
fn workspace_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let findings = scan_workspace(root, &Config::workspace()).expect("scan");
    assert!(
        findings.is_empty(),
        "fix these or waive them with `// xlint: allow(<rule>) -- <reason>`:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
