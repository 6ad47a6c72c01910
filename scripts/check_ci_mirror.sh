#!/usr/bin/env bash
# CI mirror gate: .github/workflows/ci.yml must run the same steps as
# ./ci.sh, in the same order and under the same names. Compares
#
#   * the `step "..."` titles of ci.sh, leaving out the `regen` block
#     (a local-only golden refresh) and the closing "all green", with
#   * the `- name:` entries of ci.yml, leaving out "rust toolchain"
#     (hosted-runner setup that ci.sh has no need for).
#
# On a mismatch it prints a unified diff (ci.sh on the left) and exits 1.
#
#   scripts/check_ci_mirror.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sh_steps=$(
    awk '/^if \[ "\$mode" = "regen" \]/ { skip = 1 } !skip { print } skip && /^fi$/ { skip = 0 }' \
        ci.sh |
        sed -n 's/^[[:space:]]*step "\(.*\)"$/\1/p' |
        grep -vx 'all green'
)
yml_steps=$(
    sed -n 's/^[[:space:]]*- name: \(.*\)$/\1/p' .github/workflows/ci.yml |
        grep -vx 'rust toolchain'
)

if ! diff -u --label ci.sh --label .github/workflows/ci.yml \
    <(printf '%s\n' "$sh_steps") <(printf '%s\n' "$yml_steps"); then
    echo "check_ci_mirror: .github/workflows/ci.yml does not mirror ci.sh step for step" >&2
    exit 1
fi
echo "check_ci_mirror: $(printf '%s\n' "$sh_steps" | wc -l | tr -d ' ') steps match"
