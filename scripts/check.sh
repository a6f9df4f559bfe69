#!/bin/sh
# Tier-1 verify gate: build, vet, an arm64 cross-build (the gemm vector tile
# and the GAT edge lanes are amd64 assembly; everything else must build
# without them), tests (which
# include satelint, the project's determinism / concurrency invariant linter,
# as internal/lint.TestSelfLint; see DESIGN.md "Static analysis"), 5 s native
# fuzz runs of the packet engine's event queue and its windowed event loop,
# the GAT edge kernel, the
# edge lanes' exp, the elementwise ops, the gemm vector tile, the two file
# readers (topology
# snapshots, model files), the rule payload encoder, the rule-delta round
# trip (Diff then Apply) and the two serving
# inputs (/v1/deltas queries, /v1/recompute bodies), two training runs whose
# model files must come out byte for byte, a short load burst against the
# serving surface, and a short run of the TE-cycle benchmark with its
# per-cycle checks. The full race-detector pass is its own script:
# ./scripts/check.sh && ./scripts/race.sh
set -eu
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...
echo "== go vet =="
go vet ./...
echo "== arm64 cross-build =="
# internal/autodiff's gemm tile and EdgeAttention's edge lanes are amd64
# assembly (go vet's asmdecl pass above checks their frames against the Go
# declarations); the portable build must compile and vet with the hooks that
# leave everything to the Go spellings. Cross-compiling the standard library
# needs no network.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/autodiff
echo "== go test =="
go test ./...
echo "== fuzz (12 x 5s) =="
# The packet engine's calendar queue against the reference binary heap:
# random push/pop interleavings must pop identical (t, seq) sequences.
go test -run='^$' -fuzz=FuzzCalendarOrder -fuzztime=5s ./internal/pktsim
# The engine's node partitions against the reference heap engine: random
# toy runs (rates, link capacities, queue size, jitter on or off, the update
# instant, burst, spikes, handovers) must give refRun's whole Result, bit for
# bit, at 2 and 3 workers, where the loop runs window by window.
go test -run='^$' -fuzz=FuzzEngineWindows -fuzztime=5s ./internal/pktsim
# The GAT edge kernel against the primitive-op graph it replaces: random small
# relations and projections must produce identical bits in both dtypes, with
# the vector lanes off and on — the output on inference tapes, the output and
# every gradient on gradient tapes.
go test -run='^$' -fuzz=FuzzEdgeAttention -fuzztime=5s ./internal/autodiff
# The edge lanes' exp against math.Exp: inputs from raw float64 bits and
# math.Exp's branch edges (±0, subnormals, −745, −708, 709.78, NaN, ±Inf)
# must give math.Exp's bits, and float32 inputs expT's (skips, saying so, on
# a machine without AVX2).
go test -run='^$' -fuzz=FuzzExpLanes -fuzztime=5s ./internal/autodiff
# The eight elementwise ops against a per-element scalar reference: random
# shapes, operands, gradients and op scalars from raw float bits (±0, NaN and
# ±Inf included) must give the reference's output and gradient bits in both
# dtypes at workers 1, 2, 3 and 8.
go test -run='^$' -fuzz=FuzzElementwise -fuzztime=5s ./internal/autodiff
# gemm's assembly tile against its Go tile: random small products, store and
# accumulate, must produce identical bits in both dtypes (skips, saying so,
# on a machine without AVX2).
go test -run='^$' -fuzz=FuzzGemmVector -fuzztime=5s ./internal/autodiff
# The file readers every -model flag and snapshot cache reach: any byte
# string must come back as an error or a value, never a panic, and an
# accepted snapshot must write back to the bytes it was read from.
go test -run='^$' -fuzz=FuzzReadSnapshot -fuzztime=5s ./internal/topology
go test -run='^$' -fuzz=FuzzLoad -fuzztime=5s ./internal/core
# The rule payload encoder against encoding/json: random rule sets and deltas,
# rates from raw float bits, must encode to the same bytes, and a NaN or
# infinite rate to the same encode-failed body.
go test -run='^$' -fuzz=FuzzRuleWire -fuzztime=5s ./internal/controller
# The rule-delta round trip: for two rule sets from raw bytes, rates from raw
# float bits (±0, NaN and ±Inf included), Apply(old, Diff(old, new)) must be
# new bit for bit and Diff(new, new) empty.
go test -run='^$' -fuzz=FuzzDiffApply -fuzztime=5s ./internal/ruledist
# The serving inputs: any /v1/deltas query and any /v1/recompute body gets
# 200, 400 or 429, never a 5xx or a panic, and a /v1/deltas 200 is what
# encoding/json writes for the same catch-up.
go test -run='^$' -fuzz=FuzzDeltasQuery -fuzztime=5s ./internal/controller
go test -run='^$' -fuzz=FuzzRecomputeBody -fuzztime=5s ./internal/controller
echo "== training bits =="
# "Training bits cannot move" as a check: every float of a kernel change is
# meant to be the float before it, so a training run must write the model file
# it always wrote. The benchmark's model is refitted and compared with the
# committed benchmark/model.gob, and a short `sate train` run with the digest in
# scripts/sate-train.sha256. Both were recorded on amd64 at the default
# GOAMD64=v1; a target whose compiler fuses multiply-adds rounds differently.
# `go test` above holds the same bits as tests: TestRecipeReproducesBenchmarkModel
# (sate.Train, i.e. the one recipe sim.Scenario.Fit, writes model.gob's bytes)
# and core's TestTrainMLUBits (the MLU objective's losses and weights).
if [ "$(go env GOARCH)" = amd64 ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go run ./benchmark -fit-model "$tmp/fit.gob"
	cmp "$tmp/fit.gob" benchmark/model.gob
	go run ./cmd/sate train -epochs 6 -samples 3 -save "$tmp/train.gob" >/dev/null
	echo "$(cat scripts/sate-train.sha256)  $tmp/train.gob" | sha256sum -c -
else
	echo "skipped: digests are recorded for amd64"
fi
echo "== obs/chaos race =="
# The observability subsystem is concurrent by construction (atomic metric
# recording under HTTP scrapes); always gate it and the controller that
# mounts it under the race detector. The controller run includes the chaos
# suite (controller_chaos_test.go, DESIGN.md §10): injected solver-failure
# streaks under link-failure injection, racing /v1/recompute requests, and
# cancel-mid-solve shutdown — the paths where a data race would hide.
go test -race ./internal/obs/... ./internal/solve/... ./internal/controller/... ./internal/sim/...
echo "== sate-load smoke (2s burst) =="
# A short in-process load burst through the real serving surface: any error
# response (5xx or transport failure) fails the run.
go run ./cmd/sate-load -duration 2 -conns 4 -publish-interval 0.3 \
	-out "${LOAD_REPORT:-/tmp/sate-load-report.json}"
echo "== cycle benchmark =="
# The TE-cycle benchmark (BENCHMARK.json) drives the product path end to end
# and checks every cycle's outputs; it exits nonzero on any failed check.
go run ./benchmark -workload all -seconds 3 -trace 0
echo "check.sh: all gates passed"
