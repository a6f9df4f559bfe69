#!/bin/sh
# Race-detector pass over par itself and the packages that fork through it
# (autodiff kernels, path fan-out, shard sub-solves' kernels, the topology
# snapshot series, the rule verifier's flow walk, the changelog's per-node
# diff, the packet engine's schedule fill and its event loop, which forks
# one node partition per worker every window), plus te and the rule
# distribution layer. obs, solve, controller (the concurrent serving layer:
# snapshot publication, recompute coalescing under parallel HTTP clients,
# the chaos gate) and sim are raced by check.sh; the experiment grids are
# not raced.
# Part of the tier-1 verify path: run before merging changes to any of these.
set -eu
cd "$(dirname "$0")/.."
go test -race \
	./internal/par/... \
	./internal/autodiff/... \
	./internal/paths/... \
	./internal/topology/... \
	./internal/te/... \
	./internal/rules/... \
	./internal/ruledist/... \
	./internal/pktsim/...
# shard starts no goroutine of its own and runs its sub-solves in sequence.
# TestShardedEquivalence solves through GK, which never calls par, and its
# scenario set-up is raced in topology, paths and sim, so under the race
# detector it only repeats single-goroutine work at many times its plain
# cost; it stays in go test ./... and the rest of the package is raced here.
go test -race -skip '^TestShardedEquivalence$' ./internal/shard/...
# The model's workspace pool under concurrent Solve callers, and the
# workspace's R1 and forward replays at several worker counts; the rest of
# internal/core is single-threaded above the kernels raced through autodiff.
go test -race -run 'TestSolveConcurrentWithoutWarm|TestWorkspaceDetectsTopologyItself|TestBorrowedWorkspaceNeverReplays' ./internal/core/
