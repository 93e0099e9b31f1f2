#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total.
#
# Counts the non-blank lines of every .rs file above its first
# `#[cfg(test)]` line (the whole file when it has none). Files under any
# `tests/`, `benches/`, `benchmark/` or `target/` directory are skipped.
# Rows are the crates under crates/ and shims/, the facade (src/) and
# examples/, sorted by name; the last row is the total.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -name tests -o -name benches -o -name benchmark -o -name target -o -name .git \) -prune \
    -o -type f -name '*.rs' -print |
    LC_ALL=C awk '
        {
            file = $0
            split(file, part, "/")
            group = (part[2] == "crates" || part[2] == "shims") ? part[2] "/" part[3] : part[2]
            while ((getline line < file) > 0) {
                if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) break
                if (line ~ /[^[:space:]]/) { lines[group]++; total++ }
            }
            close(file)
        }
        END {
            for (g in lines) printf "%7d  %s\n", lines[g], g | "LC_ALL=C sort -k2"
            close("LC_ALL=C sort -k2")
            printf "%7d  total\n", total
        }
    '
