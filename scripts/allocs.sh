#!/usr/bin/env bash
# allocs.sh — compiler-truth allocation inventory for the packet path.
#
# Compiles internal/{sim,network,routing,topology} with -gcflags=-S and
# reads the assembly listing: each function's STEXT header, then its
# R_CALL relocations. A call into one of the runtime's heap-allocating
# entry points (growslice, newobject, makeslice*, makemap*, mapassign*,
# convT*, concatstring*, slicebytetostring, stringtoslice*, makechan,
# newproc, mallocgc) or into fmt/log/log/slog/errors is counted per
# function and callee. The sorted `function callee count` lines are
# diffed against scripts/allocs.golden, so a new allocation anywhere in
# these packages — on the per-hop path, behind a rare branch, or in a
# constructor — shows up by name, after inlining and escape analysis.
#
# What it cannot see: an allocation inside a callee outside these
# packages (strconv, sort, ...) or behind a func value. The
# AllocsPerRun tests (TestPacketHopAllocFree and friends) catch those on
# the paths they drive.
#
# The listing is compiler output, so the golden only compares on the
# toolchain that recorded it: its first line is that `go version`, and
# a run under another one fails naming both. A diff is not
# automatically a bug — a new deliberate cold-path allocation grows the
# golden — but it must be a conscious one: regenerate with
# `scripts/allocs.sh -update` so review sees which calls appeared.
# Compiler output replays from the build cache, so repeat runs are
# cheap and print the same bytes as a cold build.
#
# Usage: scripts/allocs.sh [-update]
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/allocs.golden
pkgs=(./internal/sim ./internal/network ./internal/routing ./internal/topology)

# A plain build first, so a compile error is printed rather than read
# as listing. -gcflags without a package pattern applies only to the
# packages named on the command line, so dependencies compile normally
# (and stay cached).
go build "${pkgs[@]}"
actual=$({
	go version
	go build -gcflags=-S "${pkgs[@]}" 2>&1 | awk '
		/^[^\t#]/ { fn = ""; if (match($0, / STEXT /)) fn = substr($0, 1, RSTART - 1); next }
		fn != "" && $3 == "t=R_CALL" {
			callee = $4
			sub(/\+[0-9]+$/, "", callee)
			if (callee ~ /^runtime\.(growslice|newobject|makeslice.*|makemap.*|mapassign.*|convT.*|concatstring.*|slicebytetostring|stringtoslice.*|makechan|newproc|mallocgc)$/ ||
				callee ~ /^(fmt|log|log\/slog|errors)\./)
				n[fn " " callee]++
		}
		END { for (k in n) print k, n[k] }' | LC_ALL=C sort
})

if [[ "${1:-}" == "-update" ]]; then
	printf '%s\n' "$actual" >"$golden"
	echo "allocs.golden updated: $(($(printf '%s\n' "$actual" | wc -l) - 1)) entries" >&2
	exit 0
fi

recorded=$(head -n 1 "$golden")
current=$(go version)
if [[ "$recorded" != "$current" ]]; then
	cat >&2 <<EOF
scripts/allocs.golden was recorded by "$recorded"
but this toolchain is "$current".
The inventory is compiler output, so it only compares on the recording
toolchain: run under that one, or regenerate with scripts/allocs.sh -update.
EOF
	exit 1
fi

if ! diff -u "$golden" <(printf '%s\n' "$actual"); then
	cat >&2 <<'EOF'

allocation inventory drift against scripts/allocs.golden (see above).
  '+' lines are new allocating calls (or higher counts); '-' lines went away.
  If the change is intentional, regenerate: scripts/allocs.sh -update
EOF
	exit 1
fi
echo "allocation inventory clean" >&2
