//! Shared helpers for the experiment binaries.
//!
//! Every `figN`/`tableN` binary prints an aligned table to stdout and
//! writes the same rows as CSV under `target/experiments/`, so the
//! paper's figures can be regenerated from a single
//! `cargo run -p taichi-bench --bin <id>`.

use std::fs;
use std::path::PathBuf;

use taichi_sim::report::Table;

/// Directory where experiment CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints `table` and persists its CSV as `<name>.csv`.
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {}", path.display());
    }
}

/// Standard seed used by all experiment binaries (override with the
/// `TAICHI_SEED` environment variable).
///
/// A `TAICHI_SEED` value that fails to parse falls back to the default
/// with a one-shot warning to stderr — silently ignoring a typoed seed
/// would make a "reproduction" run un-reproducible.
pub fn seed() -> u64 {
    taichi_sim::env::env_parse_or_warn("TAICHI_SEED", |s| {
        s.trim().parse().map_err(|_| {
            format!(
                "warning: TAICHI_SEED={s:?} is not a valid u64 seed; \
                 using default 0xD1CE"
            )
        })
    })
    .unwrap_or(0xD1CE)
}

/// Re-exported deterministic parallel sweep primitives (see
/// [`taichi_sim::par`]): experiment binaries fan independent
/// `(mode, seed)` machine runs across workers with [`sweep`] and get
/// results back in input order, so their tables and CSVs are
/// byte-identical to a serial run. `TAICHI_WORKERS` overrides the
/// worker count (`TAICHI_WORKERS=1` forces the serial reference path).
pub use taichi_sim::par::{default_workers, sweep, sweep_with};

/// Checks the command line of a flag-less experiment binary
/// (`args[0]` is the program): `--trace` is the only argument it
/// takes. Returns whether `--trace` was passed, or the usage error for
/// any other argument — a stale or mistyped flag must not run the
/// experiment as if it had been honoured.
fn trace_flag(args: &[String]) -> Result<bool, String> {
    let program = args.first().map_or("experiment", String::as_str);
    match args.iter().skip(1).find(|a| *a != "--trace") {
        Some(bad) => Err(format!(
            "error: unexpected argument {bad:?}\nusage: {program} [--trace]"
        )),
        None => Ok(args.len() > 1),
    }
}

/// Call first in an experiment `main`: validates the command line
/// (`--trace` only; anything else exits 2 with a usage line) and, when
/// `--trace` was passed, arms the `TAICHI_TRACE` override so every
/// machine the binary builds (directly or through the workload
/// helpers) records a scheduler trace. Returns whether tracing is
/// armed (by the flag or by `TAICHI_TRACE` already being set). A
/// non-empty `TAICHI_TRACE` value names the dump path; the empty value
/// armed here keeps the per-experiment default destinations.
pub fn init_trace() -> bool {
    let args: Vec<String> = std::env::args().collect();
    let flag = trace_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if flag && std::env::var_os("TAICHI_TRACE").is_none() {
        std::env::set_var("TAICHI_TRACE", "");
    }
    flag || std::env::var("TAICHI_TRACE").is_ok()
}

/// Dumps a machine's scheduler trace as `<name>.trace.tsv` under the
/// results directory (no-op when the machine was built without
/// tracing). `TAICHI_TRACE=<path>` overrides the destination; when
/// several machines export under the same explicit path in one
/// process, later exports are written to `<path>.<n>` (with a
/// warning) instead of clobbering the earlier rings' schedules.
pub fn emit_trace(name: &str, machine: &taichi_core::machine::Machine) {
    let Some(tsv) = machine.trace_tsv() else {
        return;
    };
    let path = taichi_sim::trace::env_export_path(&format!("warning: {name}: "))
        .unwrap_or_else(|| results_dir().join(format!("{name}.trace.tsv")));
    if let Err(e) = fs::write(&path, tsv) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[trace] {}", path.display());
        // A silently truncated trace reads as a complete schedule;
        // surface ring evictions so nobody diffs a partial TSV
        // believing it whole. The warning is this machine's ring
        // accounting, never another export's.
        if let Some(w) = machine.tracer().and_then(|t| t.eviction_warning()) {
            eprintln!("warning: {}: {w}", path.display());
        }
    }
}

/// Peak resident set size of this process in kB, read from
/// `/proc/self/status` (`VmHWM`). Linux-only; answers `None` elsewhere
/// or if the field is missing, so callers must treat it as a
/// best-effort diagnostic, never an identity-compared value.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minimal micro-benchmark loop (the workspace builds without network
/// access, so Criterion is not available): runs `f` for a warmup, then
/// measures batches until ~0.2 s elapses and prints ns/iter.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    const WARMUP: u32 = 1_000;
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let mut iters = 0u64;
    let mut batch = 1_000u64;
    let start = std::time::Instant::now();
    loop {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 200 {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<32} {per:>12.1} ns/iter ({iters} iters)");
            return;
        }
        batch = batch.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_default() {
        // Test environments do not set TAICHI_SEED.
        if std::env::var("TAICHI_SEED").is_err() {
            assert_eq!(seed(), 0xD1CE);
        }
    }

    #[test]
    fn only_the_trace_flag_is_accepted() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(trace_flag(&args(&["fig14"])), Ok(false));
        assert_eq!(trace_flag(&args(&["fig14", "--trace"])), Ok(true));
        assert_eq!(trace_flag(&[]), Ok(false));
        for bad in [
            &["fig14", "--policy", "baseline"][..],
            &["fig14", "--trace", "--policy=baseline"],
            &["fig14", "trace"],
        ] {
            let e = trace_flag(&args(bad)).unwrap_err();
            assert!(e.starts_with("error: unexpected argument"), "{e}");
            assert!(e.contains("usage: fig14 [--trace]"), "{e}");
        }
    }

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        emit("selftest", &t);
        let p = results_dir().join("selftest.csv");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
