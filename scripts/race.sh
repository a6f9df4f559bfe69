#!/bin/sh
# Race-detector pass over every package that spawns goroutines through
# internal/par (kernels, path fan-out, snapshot series, experiment grids)
# plus the concurrent serving layer (atomic snapshot publication, the rule
# changelog, and recompute coalescing under parallel HTTP clients).
# Part of the tier-1 verify path: run before merging changes to any of these.
set -eu
cd "$(dirname "$0")/.."
go test -race \
	./internal/par/... \
	./internal/autodiff/... \
	./internal/paths/... \
	./internal/shard/... \
	./internal/topology/... \
	./internal/te/... \
	./internal/controller/... \
	./internal/ruledist/... \
	./internal/pktsim/...
# The model's workspace pool under concurrent Solve callers; the rest of
# internal/core is single-threaded above the kernels raced through autodiff.
go test -race -run 'TestSolveConcurrentWithoutWarm' ./internal/core/
