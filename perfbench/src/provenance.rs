//! Where a result came from: host, commit and environment, read from
//! files so the benchmark needs no extra dependency.

use std::fs;
use std::path::Path;

/// Host core count and CPU model from `/proc/cpuinfo`.
pub fn cpu() -> (usize, String) {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = info.lines().filter(|l| l.starts_with("processor")).count();
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    (cores, model)
}

/// The checked-out commit, read from `.git` under `root` (`unknown`
/// outside a git checkout).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every `TAICHI_*` variable in the environment: each one overrides
/// the default program, so timings are refused while any is set.
pub fn taichi_overrides() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TAICHI_"))
        .collect();
    vars.sort();
    vars
}
