package sim

import (
	"errors"
	"fmt"
	"strings"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/shard"
)

// solverRow is one entry of the solver table every driver resolves a solver
// name through.
type solverRow struct {
	name string
	// intervalSec is how often an online evaluation recomputes with this
	// solver: the paper's Fig. 8 (a) Starlink-scale latency (SaTE, whose
	// inference is milliseconds, recomputes every step: 0).
	intervalSec float64
	build       func(Spec) (Allocator, error)
}

var solverTable = []solverRow{
	{"sate", 0, func(s Spec) (Allocator, error) {
		if s.Model == "" {
			return nil, errors.New(`solver "sate" needs a model file (train one with "sate train -save")`)
		}
		return core.LoadFile(s.Model)
	}},
	{"lp", 47, func(Spec) (Allocator, error) { return baselines.LPAuto{}, nil }},
	{"gk", 47, func(Spec) (Allocator, error) { return baselines.GK{Epsilon: 0.05}, nil }},
	{"pop", 25, func(s Spec) (Allocator, error) { return &baselines.POP{K: 4, Seed: s.Seed}, nil }},
	{"ecmp-wf", 54, func(Spec) (Allocator, error) { return baselines.ECMPWF{}, nil }},
	{"maxmin-fair", 47, func(Spec) (Allocator, error) { return baselines.MaxMinFair{}, nil }},
}

func solverRowOf(name string) *solverRow {
	for i := range solverTable {
		if solverTable[i].name == name {
			return &solverTable[i]
		}
	}
	return nil
}

// SolverNames lists the solver table's names in table order.
func SolverNames() []string {
	names := make([]string, len(solverTable))
	for i, r := range solverTable {
		names[i] = r.name
	}
	return names
}

// NewSolver builds the one solver s.Solver names from the table: "sate"
// loads s.Model, "pop" seeds from s.Seed, and s.Shards > 1 wraps the result
// in the regional decomposition. A driver that runs a list sets Solver to
// each name in turn.
func (s Spec) NewSolver() (Allocator, error) {
	r := solverRowOf(s.Solver)
	if r == nil {
		return nil, fmt.Errorf("want one solver of %s, got %q", strings.Join(SolverNames(), " | "), s.Solver)
	}
	al, err := r.build(s)
	if err != nil {
		return nil, err
	}
	if s.Shards > 1 {
		al = shard.New(al, s.Shards)
	}
	return al, nil
}

// RecomputeIntervalSec is how often an online evaluation recomputes with the
// named solver: its Fig. 8 (a) Starlink-scale latency, or 0 (every step) for
// SaTE and unknown names.
func RecomputeIntervalSec(name string) float64 {
	if r := solverRowOf(name); r != nil {
		return r.intervalSec
	}
	return 0
}
