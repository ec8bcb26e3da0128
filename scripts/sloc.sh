#!/usr/bin/env bash
# Counts non-test, non-comment source lines: in every tracked .rs file
# under src/ and crates/*/src/, the lines before the first top-level
# #[cfg(test)], minus blank lines and // comment lines.
#
# The count stops at the first top-level #[cfg(test)] of each file, so
# it is only honest if that attribute opens the trailing test module.
# The script fails if any top-level #[cfg(test)] is not directly
# followed by a `mod` line: a test-only item there would hide every
# line below it from the count.
#
# Usage: scripts/sloc.sh   (run from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

files=$(git ls-files -- '*.rs' | grep -E '^(src|crates/[^/]+/src)/')

bad=0
for f in $files; do
    if ! awk 'attr && !/^(pub(\([a-z]+\))? )?mod / { print FILENAME ":" NR - 1 ": #[cfg(test)] is not followed by a mod line"; err = 1 }
              { attr = /^#\[cfg\(test\)\]/ }
              END { if (attr) { print FILENAME ": #[cfg(test)] ends the file"; err = 1 } exit err }' "$f"; then
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "error: move test-only items into the file's test module" >&2
    exit 1
fi

for f in $files; do
    awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$f"
done | wc -l
