#!/usr/bin/env bash
# Prints the number of non-test Rust lines under crates/: every .rs file
# except the shims (crates/shims/) and the integration tests
# (crates/*/tests/), each cut before its first line that begins with
# `#[cfg(test)]`. One rule, so counts from different changes compare.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' -not -path 'crates/shims/*' -not -path 'crates/*/tests/*' -print0 |
    sort -z |
    xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }' |
    awk '{ total += $1 } END { print total + 0 }'
