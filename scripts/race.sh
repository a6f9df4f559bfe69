#!/bin/sh
# Race-detector pass over par itself and the packages that fork through it
# (autodiff kernels, path fan-out, shard sub-solves' kernels, the topology
# snapshot series, the rule verifier's flow walk, the changelog's per-node
# diff, the packet engine's schedule fill), plus te and the
# concurrent serving layer (atomic snapshot publication and recompute
# coalescing under parallel HTTP clients, the rule changelog). obs, solve and
# sim are raced by check.sh; the experiment grids are not raced.
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
	./internal/rules/... \
	./internal/controller/... \
	./internal/ruledist/... \
	./internal/pktsim/...
# The model's workspace pool under concurrent Solve callers, and the
# workspace's R1 and forward replays at several worker counts; the rest of
# internal/core is single-threaded above the kernels raced through autodiff.
go test -race -run 'TestSolveConcurrentWithoutWarm|TestWorkspaceDetectsTopologyItself|TestBorrowedWorkspaceNeverReplays' ./internal/core/
