// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. 5 and Appendices D/H), plus the ablation studies
// listed in DESIGN.md. Every driver returns a Report that renders as an
// aligned text table; `sate bench` and the root bench suite call into
// these drivers.
//
// Drivers honour an Options.Full switch: the default CI scale finishes on a
// single CPU core, while Full runs paper-scale analyses (full Starlink for
// the topology/paths/delay experiments; the learning experiments stay at
// reduced embedding dimension per DESIGN.md's substitution table).
package experiments

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/sim"
	"sate/internal/te"
	"sate/internal/topology"
)

// Options selects the execution scale of an experiment.
type Options struct {
	Full bool
	Seed int64
}

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form note line.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Driver is an experiment entry point.
type Driver func(Options) (*Report, error)

// Registry maps experiment IDs to drivers.
var Registry = map[string]Driver{}

func register(id string, d Driver) { Registry[id] = d }

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	var out []string
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// scaleSpec is a constellation scale used in the sweeps: the row label and
// the scenario it names (the sweep sets mode and seed, and may override the
// intensity). Small constellations need a lower elevation mask (MinElevDeg)
// to have meaningful coverage; FlowDurationScale multiplies the Table-2 flow
// durations so that the arrival process reaches steady state within the
// simulated horizon (the paper itself scales bandwidth/flows down, Sec. 4
// footnote 5).
type scaleSpec struct {
	name string
	spec sim.Spec
}

// Steady-state timeline under durScale 0.05: mean flow lifetime ~51 s, so
// the load plateaus by ~250 s. Training samples are drawn from the plateau
// and evaluations run later on the same plateau (unseen topology + traffic).
const (
	ciTrainStart = 150.0
	ciEvalStart  = 700.0
	// evalStride spaces the unseen instants of an offline evaluation
	// (sim.Scenario.RunOffline).
	evalStride = 23.0
)

func ciScales() []scaleSpec {
	return []scaleSpec{
		{"toy-60", sim.Spec{Cons: "toy-5x6", ScenarioConfig: sim.ScenarioConfig{Intensity: 6, MinElevDeg: 5, FlowDurationScale: 0.05}}},
		{"iridium-66", sim.Spec{Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{Intensity: 6, MinElevDeg: 5, FlowDurationScale: 0.05}}},
		{"toy-160", sim.Spec{Cons: "toy-8x10", ScenarioConfig: sim.ScenarioConfig{Intensity: 10, MinElevDeg: 5, FlowDurationScale: 0.05}}},
	}
}

func fullScales() []scaleSpec {
	return []scaleSpec{
		{"iridium-66", sim.Spec{Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{Intensity: 12, MinElevDeg: 5, FlowDurationScale: 0.05}}},
		{"midsize-396", sim.Spec{Cons: "midsize1", ScenarioConfig: sim.ScenarioConfig{Intensity: 125, MinElevDeg: 10, FlowDurationScale: 0.05}}},
		{"midsize-1584", sim.Spec{Cons: "midsize2", ScenarioConfig: sim.ScenarioConfig{Intensity: 250, MinElevDeg: 25, FlowDurationScale: 0.05}}},
		{"starlink-4236", sim.Spec{Cons: "starlink", ScenarioConfig: sim.ScenarioConfig{Intensity: 500, MinElevDeg: 25, FlowDurationScale: 0.05}}},
	}
}

func scales(opt Options) []scaleSpec {
	if opt.Full {
		return fullScales()
	}
	return ciScales()
}

// newScenario builds a sim scenario for a scale spec in the given mode and
// seed; intensity 0 keeps the scale's own.
func newScenario(sc scaleSpec, mode topology.CrossShellMode, intensity float64, seed int64) *sim.Scenario {
	spec := sc.spec
	spec.Mode, spec.Seed = mode, seed
	if intensity != 0 {
		spec.Intensity = intensity
	}
	s, err := spec.Scenario()
	if err != nil {
		panic("experiments: " + err.Error()) // the scale tables name known constellations only
	}
	return s
}

// labelSolver returns the reference solver used for training labels and
// offline optima (the commercial-solver role).
func labelSolver() sim.Allocator { return baselines.LPAuto{} }

// newModel returns a fresh default-config SaTE model seeded for the run.
func newModel(seed int64) *core.Model {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.NewModel(cfg)
}

// trainInstants are n steady-state instants, unaligned with topology periods.
func trainInstants(n int) []float64 { return sim.Instants(ciTrainStart, 97, n) }

// trainSaTE fits a fresh SaTE model to the scenario's problems at
// trainInstants(nSamples) and reports the wall time of its training steps
// (labelling excluded), which fig9a compares.
func trainSaTE(s *sim.Scenario, nSamples, epochs int, seed int64) (*core.Model, time.Duration, error) {
	m := newModel(seed)
	reg := obs.NewRegistry()
	r := sim.Recipe{Instants: trainInstants(nSamples), TrainConfig: core.TrainConfig{Epochs: epochs, Registry: reg}}
	if _, err := s.Fit(m, r); err != nil {
		return nil, 0, err
	}
	steps := reg.Histogram("sate_train_step_seconds", nil).Sum()
	return m, time.Duration(steps * float64(time.Second)), nil
}

// problemsAt returns the scenario's problems at the instants with traffic:
// the training set of the baselines trained outside the recipe.
func problemsAt(s *sim.Scenario, times []float64) ([]*te.Problem, error) {
	var out []*te.Problem
	err := s.SolveEach(nil, times, func(c *sim.Cycle) error {
		out = append(out, c.Problem)
		return nil
	})
	return out, err
}

// trainHarp fits a fresh HARP model self-supervised (MLU) to the problems.
func trainHarp(problems []*te.Problem, epochs int, seed int64) (*baselines.Harp, error) {
	harp := baselines.NewHarp(16, seed)
	opt := autodiff.NewAdam(3e-3, harp.Params()...)
	opt.ClipNorm = 5
	for range epochs {
		for _, p := range problems {
			if _, err := harp.TrainStep(p, opt); err != nil {
				return nil, err
			}
		}
	}
	return harp, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d.Nanoseconds())/1e6)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// percentile returns the p-quantile (0..1) of sorted-copied data.
func percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	idx := p * float64(len(s)-1)
	lo := int(idx)
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// solveLatency times one Solve call.
func solveLatency(al sim.Allocator, p *te.Problem) (time.Duration, error) {
	c := sim.Cycle{Problem: p}
	err := c.Solve(al)
	return c.Stages.Solve, err
}

// CSV renders the report as RFC-4180 CSV (header row + data rows), for
// downstream plotting of the figures.
func (r *Report) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(r.Header) // error is sticky; checked once after Flush
	for _, row := range r.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		// Unreachable: strings.Builder writes cannot fail.
		panic("experiments: rendering CSV: " + err.Error())
	}
	return b.String()
}
