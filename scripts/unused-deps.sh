#!/usr/bin/env bash
# Fails when a package declares a dependency its library/binary code never
# names.  For the root manifest and every `crates/*/Cargo.toml`, each entry of
# the `[dependencies]` table is turned into its crate name (`-` -> `_`) and
# searched for as a whole word under that package's `src/`.  Dev-dependencies
# are not checked: tests, benches and examples live outside `src/`.
#
# Usage: scripts/unused-deps.sh
#
# Exits non-zero (listing every `package -> dependency` pair) if any declared
# dependency is unused.
set -euo pipefail

cd "$(dirname "$0")/.."

unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    package="$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")"
    deps="$(awk '
        /^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && /^[A-Za-z0-9_-]+ *[.=]/ { sub(/[ .=].*/, ""); print }
    ' "$manifest")"
    for dep in $deps; do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$dir/src"; then
            echo "unused dependency: $package -> $dep ($manifest)" >&2
            unused=1
        fi
    done
done

if [ "$unused" -ne 0 ]; then
    exit 1
fi
echo "every declared dependency is used"
