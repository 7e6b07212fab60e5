#!/bin/sh
# Asserts that the workspace lint policy still fires: clippy must fail on
# the dirty fixture and name every lint in [workspace.lints], plus the
# compiler's report of a stale #[expect]. Run from anywhere.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
if cargo clippy --quiet --manifest-path "$root/Cargo.toml" -p lint-fixture \
    --features dirty --message-format=json -- -D warnings >"$out"; then
    echo "lint-fixture: clippy passed on the dirty fixture" >&2
    exit 1
fi
lints=$(awk '
    /^\[workspace\.lints\.rust\]/ { prefix = ""; on = 1; next }
    /^\[workspace\.lints\.clippy\]/ { prefix = "clippy::"; on = 1; next }
    /^\[/ { on = 0 }
    on && /=/ { print prefix $1 }
' "$root/Cargo.toml")
missing=0
for lint in $lints unfulfilled_lint_expectations; do
    if grep -q "\"code\":{\"code\":\"$lint\"" "$out"; then
        echo "lint-fixture: fires $lint"
    else
        echo "lint-fixture: MISSING $lint" >&2
        missing=1
    fi
done
exit $missing
