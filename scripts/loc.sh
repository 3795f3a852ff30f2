#!/usr/bin/env sh
# Non-test line counts of the workspace crates.
#
#   scripts/loc.sh
#
# Prints, per crate, the lines of every `crates/<crate>/src/**/*.rs` that
# come before the file's first `#[cfg(test)]` (the whole file when it has
# none), then the workspace total. Unit tests sit at the end of their
# module, so this is the size of the code without its tests.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "${dir}src" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { count++ }
        END { print count + 0 }' {} + | awk '{ sum += $1 } END { print sum + 0 }')
    printf '%-10s %7d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %7d\n' total "$total"
