#!/usr/bin/env bash
# Prints the non-test source line count tracked in ROADMAP.md: every line of
# every `.rs` file under `crates/*/src` and `src`, up to (not including) the
# file's first column-0 `#[cfg(test)]`, so in-file unit-test modules are not
# counted.  Integration tests, benches, examples and vendored shims live
# outside those directories and are never counted.
#
# Usage: scripts/loc.sh
#
# Informational only: always exits 0.
set -uo pipefail

cd "$(dirname "$0")/.."

for dir in crates/*/src src; do
    find "$dir" -name '*.rs' -type f -print0 |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { printf "%8d  %s\n", n + 0, dir }
        ' dir="$dir"
done | awk '{ print; total += $1 } END { printf "%8d  total non-test lines (crates/*/src + src)\n", total }'
exit 0
