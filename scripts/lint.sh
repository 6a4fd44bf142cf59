#!/usr/bin/env bash
# lint.sh — the repo's static checks. CI's lint job runs this script, so
# a local run is exactly the CI gate.
#
# Five gates:
#   1. gofmt -l   — no unformatted files (the simlint directive comments
#                   are gofmt-stable; drift here usually means a hand
#                   edit skipped gofmt)
#   2. go vet     — the stock toolchain analyzers
#   3. simlint    — the repo's own analyzer suite, one analyzer per
#                   invariant (detrand, resetcheck, hotpath,
#                   sharecheck); see internal/analyzers and DESIGN.md
#                   "Static invariants". Built once and run as a binary
#                   — the module driver loads the whole tree in one
#                   pass, so one process covers every package.
#   4. fixtures   — the analyzers' own tests (go test
#                   ./internal/analyzers/... ./cmd/simlint), so a rule
#                   regression fails here, not only in the test job
#   5. escapes    — compiler-truth escape-analysis golden for the hot
#                   packages (scripts/escapes.sh)
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt ==" >&2
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
	echo "gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ==" >&2
go vet ./...

echo "== simlint ==" >&2
simlint_dir=$(mktemp -d)
trap 'rm -rf "$simlint_dir"' EXIT
go build -o "$simlint_dir/simlint" ./cmd/simlint
"$simlint_dir/simlint" ./...

echo "== analyzer tests ==" >&2
go test ./internal/analyzers/... ./cmd/simlint

echo "== escape golden ==" >&2
scripts/escapes.sh

echo "lint clean" >&2
