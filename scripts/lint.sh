#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate.
#
# Runs, in order:
#   1. go vet ./...              the standard toolchain checks
#   2. go run ./cmd/adwsvet ./...   the project's own analyzers (see
#      docs/LINT.md): hotpath, hotalloc, lockorder, lockedby and
#      evexhaustive — the scheduler's concurrency invariants that go vet,
#      the tests and the race detector cannot see.
#
# Self-check: ./... includes cmd/adwsvet and internal/lint themselves, so
# the suite runs over its own sources every time (go list skips only the
# testdata fixtures, which are deliberately violation-laden).
#
# Usage: scripts/lint.sh   (from the repo root, or anywhere inside it)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> adwsvet ./..."
go run ./cmd/adwsvet ./...
