//! Interleaved A/B comparison of the repository benchmark (`perfbench`)
//! between a base commit and the working tree:
//!
//! ```text
//! cargo run --release -p taichi-bench --bin perf_ab -- \
//!     [--base <rev>] [--workload <name>]... [--seconds <s>]
//! ```
//!
//! - **Build.** The base commit (`--base`, default `HEAD~1`) is checked
//!   out in a detached `git worktree` under `target/perf_ab/`; the
//!   working tree is the change side. Each side's `perfbench` is built
//!   with `cargo build --release --offline` into its own target
//!   directory. The main checkout's index, refs and files are never
//!   touched.
//! - **Pairs.** Each workload (`--workload`, repeatable, default every
//!   workload in `BENCHMARK.json`) runs [`PAIRS`] base/change pairs at
//!   perfbench's default seed, alternating which side runs first. Run
//!   length is `BENCHMARK.json`'s `run_seconds` unless `--seconds`
//!   overrides it.
//! - **Verdicts.** For each end-to-end metric, with its `better`
//!   direction and `bound` from `BENCHMARK.json` (see [`compare`]):
//!   `GAIN` when the change wins at least [`DECISIVE`] pairs and its
//!   median beats the base median by more than the base's
//!   interquartile range; `REGRESSION` when the change median is worse
//!   by more than the bound and the change loses at least [`DECISIVE`]
//!   pairs; `UNRESOLVED` when the base's interquartile range exceeds
//!   the bound, unless every change run beats every base run; `ok`
//!   otherwise. A median alone cannot gate: on a 2-core VM the same
//!   binary's `net_bursty` runs spread over ~37% of their median, while
//!   a real regression beyond the bound loses nearly every pair.
//! - **Exit code.** 1 on any `REGRESSION`, on any run reporting
//!   `correct: false`, or when the change's failed-operation share
//!   exceeds the base's; 2 on a usage, git, build or run error;
//!   0 otherwise.
//! - **Record.** One JSON line per comparison is appended to
//!   `BENCH_ab.jsonl` at the repository root (earlier lines are never
//!   rewritten): both commits (from `git rev-parse`, because perfbench
//!   reads `commit unknown` inside a worktree), whether the working
//!   tree was dirty, the run length, and per workload perfbench's
//!   provenance line, the operation counts and per metric the
//!   quartiles, wins, losses, median pair ratio and verdict.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Interleaved base/change pairs per workload.
const PAIRS: usize = 10;
/// Pairs of [`PAIRS`] the change must win for a `GAIN`, or lose for a
/// `REGRESSION`.
const DECISIVE: usize = 9;

const USAGE: &str = "usage: perf_ab [--base <rev>] [--workload <name>]... [--seconds <s>]";

/// One end-to-end metric of `BENCHMARK.json`.
struct MetricDef {
    name: String,
    higher_is_better: bool,
    /// Relative worsening of the median that counts as a regression.
    bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison uses.
struct Benchmark {
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<MetricDef>,
}

/// One perfbench run's result line.
#[derive(Debug, PartialEq)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric values in [`Benchmark::metrics`] order.
    values: Vec<f64>,
}

/// Raw value of the first `"key": value` in `text`: a string without
/// its quotes, or anything else up to the next `,` or `}`. Enough for
/// the two fixed shapes this binary reads (`BENCHMARK.json` and
/// perfbench's result line) without a JSON dependency.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = text[text.find(&pattern)? + pattern.len()..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// The `{...}` objects of the array under `key` (no nesting inside).
fn objects<'a>(text: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let after = &text[text.find(&format!("\"{key}\":"))?..];
    let array = &after[after.find('[')? + 1..after.find(']')?];
    Some(array.split('{').skip(1).collect())
}

fn number<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    field(text, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no number \"{key}\" in {text:?}"))
}

fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let missing = |what: &str| format!("BENCHMARK.json: no {what}");
    let workloads = objects(text, "workloads")
        .ok_or_else(|| missing("workloads"))?
        .iter()
        .map(|o| field(o, "name").map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| missing("workload name"))?;
    let mut metrics = Vec::new();
    for o in objects(text, "end_to_end").ok_or_else(|| missing("end_to_end"))? {
        metrics.push(MetricDef {
            name: field(o, "name")
                .ok_or_else(|| missing("metric name"))?
                .to_string(),
            higher_is_better: match field(o, "better") {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("BENCHMARK.json: bad \"better\" {other:?}")),
            },
            bound: number(o, "bound")?,
        });
    }
    Ok(Benchmark {
        run_seconds: number(text, "run_seconds")?,
        workloads,
        metrics,
    })
}

fn parse_result(line: &str, metrics: &[MetricDef]) -> Result<RunResult, String> {
    let values = metrics
        .iter()
        .map(|m| {
            let at = line
                .find(&format!("\"{}\":", m.name))
                .ok_or_else(|| format!("result line has no metric {}", m.name))?;
            number(&line[at..], "value")
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: field(line, "correct") == Some("true"),
        attempted: number(line, "attempted")?,
        failed: number(line, "failed")?,
        values,
    })
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(xs, q))
}

/// One metric compared over the pairs of one workload.
struct Comparison {
    base: [f64; 3],
    change: [f64; 3],
    /// Pairs where the change is strictly better; ties count for
    /// neither side.
    wins: usize,
    losses: usize,
    /// Median of the per-pair change/base ratios.
    ratio: f64,
    /// `GAIN`, `REGRESSION`, `UNRESOLVED` or `ok`.
    verdict: &'static str,
}

/// Compares one metric over the pairs `(base[i], change[i])`.
fn compare(base: &[f64], change: &[f64], def: &MetricDef) -> Comparison {
    let beats = |a: f64, b: f64| if def.higher_is_better { a > b } else { a < b };
    let pairs = || base.iter().zip(change);
    let wins = pairs().filter(|(&b, &c)| beats(c, b)).count();
    let losses = pairs().filter(|(&b, &c)| beats(b, c)).count();
    let ratios: Vec<f64> = pairs().map(|(b, c)| c / b).collect();
    let (b, c) = (quartiles(base), quartiles(change));
    // How far the change median is better than the base median
    // (negative when worse), in the metric's unit.
    let better_by = if def.higher_is_better {
        c[1] - b[1]
    } else {
        b[1] - c[1]
    };
    let iqr = b[2] - b[0];
    let tolerance = def.bound * b[1].abs();
    let decisive = (DECISIVE * base.len()).div_ceil(PAIRS);
    let dominates = change.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    let verdict = if -better_by > tolerance && losses >= decisive {
        "REGRESSION"
    } else if better_by > iqr && wins >= decisive {
        "GAIN"
    } else if iqr > tolerance && !dominates {
        "UNRESOLVED"
    } else {
        "ok"
    };
    Comparison {
        base: b,
        change: c,
        wins,
        losses,
        ratio: quantile(&ratios, 0.5),
        verdict,
    }
}

/// Operations attempted and failed over `runs`.
fn ops(runs: &[RunResult]) -> (u64, u64) {
    runs.iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// Share of operations that failed over `runs`.
fn failed_share(runs: &[RunResult]) -> f64 {
    let (attempted, failed) = ops(runs);
    failed as f64 / attempted.max(1) as f64
}

/// Why one workload's runs fail the comparison regardless of timing.
fn correctness_failures(base: &[RunResult], change: &[RunResult]) -> Vec<String> {
    let mut why = Vec::new();
    for (side, runs) in [("base", base), ("change", change)] {
        let bad = runs.iter().filter(|r| !r.correct).count();
        if bad > 0 {
            why.push(format!("{bad} {side} run(s) reported correct: false"));
        }
    }
    if failed_share(change) > failed_share(base) {
        why.push(format!(
            "change failed-ops share {:.4} exceeds base {:.4}",
            failed_share(change),
            failed_share(base)
        ));
    }
    why
}

struct Args {
    base: String,
    workloads: Vec<String>,
    seconds: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        base: "HEAD~1".to_string(),
        workloads: Vec::new(),
        seconds: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--base" => parsed.base = value.clone(),
            "--workload" => parsed.workloads.push(value.clone()),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => parsed.seconds = Some(s),
                _ => return Err(format!("bad value {value:?} for --seconds")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// Runs `git -C dir args` and returns its trimmed standard output.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A detached worktree of `sha` under `target/perf_ab/`, reused when it
/// already sits at `sha`.
fn base_worktree(root: &Path, sha: &str) -> Result<PathBuf, String> {
    let wt = root.join("target/perf_ab/base");
    if wt.join(".git").is_file() && git(&wt, &["rev-parse", "HEAD"]).as_deref() == Ok(sha) {
        return Ok(wt);
    }
    let _ = fs::remove_dir_all(&wt);
    git(root, &["worktree", "prune"])?;
    let path = wt.to_str().ok_or("non-UTF-8 worktree path")?;
    git(root, &["worktree", "add", "--detach", path, sha])?;
    Ok(wt)
}

/// Builds `side`'s perfbench into `target/perf_ab/<name>` and returns
/// the binary.
fn build(root: &Path, side: &Path, name: &str) -> Result<PathBuf, String> {
    let target = root.join("target/perf_ab").join(name);
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(side.join("perfbench/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {name} perfbench failed ({status})"));
    }
    Ok(target.join("release/taichi-perfbench"))
}

/// One perfbench run: its provenance (first) line and result.
fn run_once(
    bin: &Path,
    workload: &str,
    seconds: f64,
    metrics: &[MetricDef],
) -> Result<(String, RunResult), String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().filter(|l| l.starts_with('{'));
    let Some(last) = last else {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{workload}: no result line ({}): {}",
            out.status,
            err.trim()
        ));
    };
    let provenance = stdout.lines().next().unwrap_or_default().to_string();
    Ok((provenance, parse_result(last, metrics)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| compare_commits(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs the whole comparison; `Ok(false)` when it fails the gate.
fn compare_commits(args: &Args) -> Result<bool, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let bench_json = fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bench = parse_benchmark(&bench_json)?;
    let workloads = if args.workloads.is_empty() {
        bench.workloads.clone()
    } else {
        args.workloads.clone()
    };
    if let Some(w) = workloads.iter().find(|w| !bench.workloads.contains(w)) {
        return Err(format!("unknown workload {w:?}"));
    }
    let seconds = args.seconds.unwrap_or(bench.run_seconds);
    let base_rev = format!("{}^{{commit}}", args.base);
    let base_sha = git(&root, &["rev-parse", "--verify", &base_rev])?;
    let change_sha = git(&root, &["rev-parse", "HEAD"])?;
    let dirty = !git(&root, &["status", "--porcelain"])?.is_empty();

    let base_tree = base_worktree(&root, &base_sha)?;
    let base_bin = build(&root, &base_tree, "base-target")?;
    let change_bin = build(&root, &root, "change-target")?;
    println!(
        "perf_ab: base {base_sha} vs change {change_sha}{} | {PAIRS} pairs x {seconds} s",
        if dirty { " (dirty)" } else { "" }
    );

    let mut pass = true;
    let mut record = format!(
        "{{\"base\": \"{base_sha}\", \"change\": \"{change_sha}\", \"dirty\": {dirty}, \
         \"seconds\": {seconds:?}, \"pairs\": {PAIRS}, \"workloads\": ["
    );
    let bins = [base_bin, change_bin];
    for (wi, w) in workloads.iter().enumerate() {
        // Side 0 is the base, side 1 the change; pairs alternate which
        // side runs first.
        let (mut runs, mut provenance) = ([Vec::new(), Vec::new()], String::new());
        for pair in 0..PAIRS {
            for side in [pair % 2, 1 - pair % 2] {
                let (prov, result) = run_once(&bins[side], w, seconds, &bench.metrics)?;
                if side == 1 {
                    provenance = prov;
                }
                runs[side].push(result);
            }
        }
        let [base, change] = runs;
        println!("\n{provenance}");
        let (b_head, c_head) = ("base median [q1, q3]", "change median [q1, q3]");
        println!(
            "{:<16} {b_head:>38} {c_head:>38} {:>6} {:>7}  verdict",
            "metric", "wins", "ratio"
        );
        let failures = correctness_failures(&base, &change);
        let ((base_ops, base_failed), (change_ops, change_failed)) = (ops(&base), ops(&change));
        let correct = base.iter().chain(&change).all(|r| r.correct);
        let sep = if wi > 0 { ", " } else { "" };
        let _ = write!(
            record,
            "{sep}{{\"name\": \"{w}\", \"provenance\": {provenance:?}, \"correct\": {correct}, \
             \"attempted\": [{base_ops}, {change_ops}], \
             \"failed\": [{base_failed}, {change_failed}], \"metrics\": {{"
        );
        for (mi, def) in bench.metrics.iter().enumerate() {
            let values = |runs: &[RunResult]| runs.iter().map(|r| r.values[mi]).collect::<Vec<_>>();
            let c = compare(&values(&base), &values(&change), def);
            let (name, sep) = (&def.name, if mi > 0 { ", " } else { "" });
            let (q_base, q_change) = (c.base, c.change);
            let (wins, losses, ratio, verdict) = (c.wins, c.losses, c.ratio, c.verdict);
            let span = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            let (b_span, c_span) = (span(q_base), span(q_change));
            println!(
                "{name:<16} {b_span:>38} {c_span:>38} {wins:>3}/{PAIRS} {ratio:>7.4}  {verdict}"
            );
            pass &= verdict != "REGRESSION";
            let _ = write!(
                record,
                "{sep}\"{name}\": {{\"base\": {q_base:?}, \"change\": {q_change:?}, \
                 \"wins\": {wins}, \"losses\": {losses}, \"ratio\": {ratio:?}, \
                 \"verdict\": \"{verdict}\"}}"
            );
        }
        record.push_str("}}");
        for f in &failures {
            println!("FAIL {w}: {f}");
        }
        pass &= failures.is_empty();
    }
    record.push_str("]}\n");

    let path = root.join("BENCH_ab.jsonl");
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\n[record] {}\nperf_ab: {}",
        path.display(),
        if pass { "pass" } else { "FAIL" }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".to_string(),
            higher_is_better,
            bound,
        }
    }

    fn run(correct: bool, attempted: u64, failed: u64) -> RunResult {
        RunResult {
            correct,
            attempted,
            failed,
            values: Vec::new(),
        }
    }

    #[test]
    fn quartiles_interpolate_for_odd_and_even_n() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn ties_count_for_neither_and_lower_flips_the_comparison() {
        let base = [10.0, 10.0, 10.0, 10.0];
        let change = [11.0, 10.0, 9.0, 12.0];
        let higher = compare(&base, &change, &def(true, 0.5));
        assert_eq!((higher.wins, higher.losses), (2, 1));
        let lower = compare(&base, &change, &def(false, 0.5));
        assert_eq!((lower.wins, lower.losses), (1, 2));
        assert!((higher.ratio - 1.05).abs() < 1e-12, "{}", higher.ratio);
    }

    /// Ten pairs: the base alternates 100/102 (IQR 2), the change is
    /// `change[i]`.
    fn verdict(change: [f64; 10], higher_is_better: bool, bound: f64) -> &'static str {
        let base = [
            100.0, 102.0, 100.0, 102.0, 100.0, 102.0, 100.0, 102.0, 100.0, 102.0,
        ];
        compare(&base, &change, &def(higher_is_better, bound)).verdict
    }

    #[test]
    fn regression_needs_the_bound_and_nine_losses() {
        let slow = [70.0; 10];
        assert_eq!(verdict(slow, true, 0.25), "REGRESSION");
        // Worse by less than the bound: not a regression.
        assert_eq!(verdict([80.0; 10], true, 0.25), "ok");
        // Beyond the bound in the median, but only 8 of 10 pairs lost.
        let mut mixed = slow;
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(verdict(mixed, true, 0.25), "ok");
        mixed[1] = 70.0;
        assert_eq!(verdict(mixed, true, 0.25), "REGRESSION");
        // For `better: lower` the same numbers are a gain.
        assert_eq!(verdict(slow, false, 0.25), "GAIN");
    }

    #[test]
    fn gain_needs_nine_wins_and_a_median_beyond_the_base_iqr() {
        assert_eq!(verdict([103.5; 10], true, 0.25), "GAIN");
        // Wins every pair but the median moves by less than the IQR.
        assert_eq!(verdict([102.5; 10], true, 0.25), "ok");
        let mut eight = [110.0; 10];
        eight[0] = 90.0;
        eight[1] = 90.0;
        assert_eq!(verdict(eight, true, 0.25), "ok");
    }

    #[test]
    fn a_wide_base_is_unresolved_unless_the_change_dominates() {
        // IQR 2 on a median of 101 is wider than a 1% bound.
        assert_eq!(verdict([101.0; 10], true, 0.01), "UNRESOLVED");
        // Every change run beats every base run: resolved, and a gain.
        assert_eq!(verdict([102.5; 10], true, 0.01), "ok");
        assert_eq!(verdict([103.5; 10], true, 0.01), "GAIN");
        // Identical runs are ok under any bound.
        let same = [7.0; 10];
        assert_eq!(compare(&same, &same, &def(false, 0.0)).verdict, "ok");
    }

    #[test]
    fn incorrect_runs_and_a_higher_failed_share_fail() {
        let clean = [run(true, 100, 0), run(true, 100, 0)];
        assert!(correctness_failures(&clean, &clean).is_empty());
        let wrong = [run(true, 100, 0), run(false, 100, 0)];
        assert_eq!(correctness_failures(&clean, &wrong).len(), 1);
        assert_eq!(correctness_failures(&wrong, &clean).len(), 1);
        let failing = [run(true, 100, 1), run(true, 100, 0)];
        let why = correctness_failures(&clean, &failing);
        assert!(why[0].contains("failed-ops share"), "{why:?}");
        assert!(correctness_failures(&failing, &clean).is_empty());
    }

    #[test]
    fn scanner_reads_the_committed_benchmark() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let bench = parse_benchmark(&fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bench.workloads, ["net_bursty", "cp_churn", "fleet_tenants"]);
        assert_eq!(bench.run_seconds, 30.0);
        let shape: Vec<(&str, bool, f64)> = bench
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.higher_is_better, m.bound))
            .collect();
        assert_eq!(
            shape,
            [
                ("sim_ms_per_s", true, 0.25),
                ("setup_s", false, 0.25),
                ("peak_rss_mb", false, 0.15),
                ("dp_p50_us", false, 0.1),
                ("dp_p999_us", false, 0.1),
                ("tenant1_p99_us", false, 0.1),
            ]
        );
    }

    #[test]
    fn scanner_reads_a_perfbench_result_line() {
        let line = r#"{"correct": true, "attempted": 6000, "failed": 0, "metrics": {"sim_ms_per_s": {"value": 2667.9392203159746, "unit": "ms/s"}, "setup_s": {"value": 1.135e-5, "unit": "s"}, "peak_rss_mb": {"value": 4.70703125, "unit": "MB"}, "dp_p50_us": {"value": 8.265769346689122, "unit": "us"}, "dp_p999_us": {"value": 41.894153875370975, "unit": "us"}, "tenant1_p99_us": {"value": 30.138042947368433, "unit": "us"}}}"#;
        let metrics: Vec<MetricDef> = ["sim_ms_per_s", "setup_s", "tenant1_p99_us"]
            .iter()
            .map(|n| MetricDef {
                name: n.to_string(),
                ..def(true, 0.1)
            })
            .collect();
        let r = parse_result(line, &metrics).unwrap();
        assert_eq!(
            r,
            RunResult {
                correct: true,
                attempted: 6000,
                failed: 0,
                values: vec![2667.9392203159746, 1.135e-5, 30.138042947368433],
            }
        );
        let wrong = line.replace("\"correct\": true", "\"correct\": false");
        assert!(!parse_result(&wrong, &metrics).unwrap().correct);
        assert!(parse_result("{\"correct\": true}", &metrics).is_err());
    }

    #[test]
    fn only_three_flags_are_accepted() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_args(&args(&[
            "--workload",
            "a",
            "--workload",
            "b",
            "--seconds",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            (a.base.as_str(), a.workloads.len(), a.seconds),
            ("HEAD~1", 2, Some(2.0))
        );
        assert_eq!(parse_args(&args(&["--base", "abc"])).unwrap().base, "abc");
        for bad in [
            &["--quick"][..],
            &["--seconds", "0"],
            &["--seconds", "x"],
            &["--base"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
