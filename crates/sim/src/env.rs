//! One-shot parsing of `TAICHI_*` environment overrides.
//!
//! The simulator reads four variables, none of which has a flag twin:
//! `TAICHI_SEED` and `TAICHI_WORKERS` (run seed and sweep worker
//! count), and the debugging overlays `TAICHI_FAULTS` and
//! `TAICHI_TRACE` (any value arms tracing; a non-empty one names the
//! dump path). The parsed ones share one contract: unset means the
//! default, a valid value applies, and an invalid value falls back
//! **with a warning** — silently ignoring a typoed selector would fake a
//! comparison run. The warning must also not repeat: `TAICHI_FAULTS`
//! is consulted per constructed `Machine`, and a 100k-machine sweep
//! repeating the same line 100k times buries the one occurrence that
//! matters. Everything else — the scheduling regime included — is set
//! in code or by a command-line flag, never here.
//!
//! [`env_parse_or_warn`] centralizes the read-parse-warn-once shape;
//! [`warn_once`] is the underlying deduplicated emitter for callers
//! whose fallback logic does not fit the `Option` shape (for example
//! `TAICHI_WORKERS`, where `0` and garbage fall back differently).

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

fn warned() -> &'static Mutex<HashSet<String>> {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Emits `message` to stderr at most once per `key` per process.
/// Returns `true` when the message was actually printed.
pub fn warn_once(key: &str, message: &str) -> bool {
    let fresh = warned()
        .lock()
        .expect("env warning registry poisoned")
        .insert(key.to_string());
    if fresh {
        eprintln!("{message}");
    }
    fresh
}

/// Test-only: forget that `key` warned, so warn-once behaviour itself
/// can be exercised repeatedly in one process.
#[doc(hidden)]
pub fn reset_warned(key: &str) {
    warned()
        .lock()
        .expect("env warning registry poisoned")
        .remove(key);
}

/// Reads the environment variable `var` and runs `parse` on its value.
///
/// - unset: `None`, silently (the caller's default applies);
/// - `parse` returns `Ok(v)`: `Some(v)`;
/// - `parse` returns `Err(warning)`: the warning line is printed to
///   stderr **once per variable per process**, then `None` (the
///   caller's default applies, exactly as if the variable were unset).
///
/// The `Err` string is the complete warning line, so each caller keeps
/// its established message wording.
pub fn env_parse_or_warn<T>(var: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    match parse(&raw) {
        Ok(v) => Some(v),
        Err(warning) => {
            warn_once(var, &warning);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_silently_none() {
        assert_eq!(
            env_parse_or_warn("TAICHI_TEST_UNSET_VAR", |_| Ok(1u32)),
            None
        );
    }

    #[test]
    fn valid_value_parses() {
        std::env::set_var("TAICHI_TEST_VALID", "42");
        let got = env_parse_or_warn("TAICHI_TEST_VALID", |s| {
            s.parse::<u32>().map_err(|e| e.to_string())
        });
        std::env::remove_var("TAICHI_TEST_VALID");
        assert_eq!(got, Some(42));
    }

    #[test]
    fn invalid_value_warns_once_then_stays_quiet() {
        reset_warned("TAICHI_TEST_BAD");
        std::env::set_var("TAICHI_TEST_BAD", "junk");
        let parse = |s: &str| {
            s.parse::<u32>()
                .map_err(|_| format!("warning: TAICHI_TEST_BAD={s:?} bad"))
        };
        assert_eq!(env_parse_or_warn("TAICHI_TEST_BAD", parse), None);
        // Second failure: same fallback, but the registry suppresses
        // the repeat emission.
        assert!(!warn_once("TAICHI_TEST_BAD", "repeat"));
        std::env::remove_var("TAICHI_TEST_BAD");
        reset_warned("TAICHI_TEST_BAD");
    }

    #[test]
    fn warn_once_is_per_key() {
        reset_warned("TAICHI_TEST_KEY_A");
        reset_warned("TAICHI_TEST_KEY_B");
        assert!(warn_once("TAICHI_TEST_KEY_A", "a"));
        assert!(warn_once("TAICHI_TEST_KEY_B", "b"), "independent keys");
        assert!(!warn_once("TAICHI_TEST_KEY_A", "a again"));
        reset_warned("TAICHI_TEST_KEY_A");
        reset_warned("TAICHI_TEST_KEY_B");
    }
}
