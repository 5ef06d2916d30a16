#!/usr/bin/env bash
# gate.sh — run a named `go test -race -run` gate that cannot pass vacuously.
#
# Usage: scripts/gate.sh 'NameA|NameB|...' pkg...
#
# The pattern must be a flat alternation. Every alternative has to select at
# least one test in the listed packages (checked with `go test -list` before
# anything runs), so renaming or deleting a test fails its gate instead of
# silently shrinking it.
set -euo pipefail
cd "$(dirname "$0")/.."

re="$1"; shift
listed="$(go test -list "$re" "$@" | grep -E '^(Test|Fuzz)' || true)"
IFS='|' read -ra alts <<< "$re"
for alt in "${alts[@]}"; do
  if ! grep -qE -- "$alt" <<< "$listed"; then
    echo "gate.sh: '$alt' selects no test in $*" >&2
    exit 1
  fi
done
exec go test -race -count=1 -run "$re" "$@"
