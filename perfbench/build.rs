//! Stamps the binary with the toolchain, build profile and source commit
//! so every result line says what produced it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The commit is read from the repository's `.git` directly (no `git`
    // process): a source export without `.git` stamps "unknown".
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("..").join(".git");
    let (commit, watched) = head_commit(&git);
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// Resolves `HEAD` to a commit id, returning it with the files whose
/// change should re-stamp the binary. Only existing files are watched:
/// cargo re-runs a build script on every build when a watched path is
/// missing.
fn head_commit(git: &Path) -> (String, Vec<PathBuf>) {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return ("unknown".into(), Vec::new());
    };
    let head = head.trim();
    let mut watched = vec![head_path.clone()];
    let Some(reference) = head.strip_prefix("ref: ") else {
        return (short(head), watched);
    };
    let ref_path = git.join(reference);
    if let Ok(id) = std::fs::read_to_string(&ref_path) {
        watched.push(ref_path);
        return (short(id.trim()), watched);
    }
    let packed_path = git.join("packed-refs");
    if let Ok(packed) = std::fs::read_to_string(&packed_path) {
        watched.push(packed_path);
        for line in packed.lines() {
            if let Some((id, name)) = line.split_once(' ') {
                if name == reference {
                    return (short(id), watched);
                }
            }
        }
    }
    ("unknown".into(), watched)
}

fn short(id: &str) -> String {
    id.chars().take(12).collect()
}
