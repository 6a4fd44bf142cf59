#!/usr/bin/env bash
# escapes.sh — compiler-truth escape-analysis gate for the hot packages.
#
# simlint's hotpath analyzer enforces the repo's allocation
# discipline structurally, but the compiler's escape analysis is the
# ground truth for what actually reaches the heap. This gate freezes
# that truth: it runs `go build -gcflags=-m` over the three packages on
# the packet hot path (internal/sim, internal/network, internal/routing),
# keeps the "escapes to heap" / "moved to heap" verdicts, and diffs them
# against the checked-in golden (scripts/escapes.golden).
#
# A diff is not automatically a bug — a new deliberate cold-path
# allocation legitimately grows the golden — but it must be a conscious
# decision: regenerate with `scripts/escapes.sh -update` and let review
# see exactly which values started escaping. An UNintentional diff is
# the compiler telling you a refactor un-stack-allocated something that
# simlint's structural rules could not see (e.g. a closure that started
# capturing by reference, or an interface conversion the inliner no
# longer eliminates).
#
# Line/column numbers are stripped so unrelated edits above an
# allocation don't churn the golden; entries are keyed by file and
# diagnostic text, sorted. Diagnostics replay from the build cache, so
# repeat runs are cheap.
#
# Usage: scripts/escapes.sh [-update]
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/escapes.golden
pkgs=(repro/internal/sim repro/internal/network repro/internal/routing)

# -gcflags without a package pattern applies only to the packages named
# on the command line, so dependencies compile normally (and stay cached).
actual=$(go build -gcflags=-m "${pkgs[@]}" 2>&1 |
	grep -E 'escapes to heap|moved to heap' |
	sed -E 's/^([^:]+):[0-9]+:[0-9]+:/\1:/' |
	LC_ALL=C sort -u)

if [[ "${1:-}" == "-update" ]]; then
	printf '%s\n' "$actual" >"$golden"
	echo "escapes.golden updated: $(printf '%s\n' "$actual" | wc -l | tr -d ' ') entries" >&2
	exit 0
fi

if ! diff -u "$golden" <(printf '%s\n' "$actual"); then
	cat >&2 <<'EOF'

escape-analysis drift against scripts/escapes.golden (see above).
  lines starting with '+' are new heap escapes; '-' lines stopped escaping.
  If the change is intentional, regenerate: scripts/escapes.sh -update
EOF
	exit 1
fi
echo "escape golden clean" >&2
