// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. 5 and Appendices D/H), plus the ablation studies
// listed in DESIGN.md. Every driver returns a Report that renders as an
// aligned text table; cmd/sate-bench and the root bench suite call into
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

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
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

// scaleSpec names a constellation scale used in the sweeps.
type scaleSpec struct {
	name string
	cons func() *constellation.Constellation
	// minElev for user access; small constellations need a lower threshold
	// to have meaningful coverage (see sim.ScenarioConfig.MinElevDeg).
	minElevDeg float64
	intensity  float64 // default traffic intensity for this scale
	// durScale multiplies the Table-2 flow durations so that the arrival
	// process reaches steady state within the simulated horizon (the paper
	// itself scales bandwidth/flows down, Sec. 4 footnote 5).
	durScale float64
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
		{name: "toy-60", cons: func() *constellation.Constellation { return constellation.Toy(5, 6) }, minElevDeg: 5, intensity: 6, durScale: 0.05},
		{name: "iridium-66", cons: constellation.Iridium, minElevDeg: 5, intensity: 6, durScale: 0.05},
		{name: "toy-160", cons: func() *constellation.Constellation { return constellation.Toy(8, 10) }, minElevDeg: 5, intensity: 10, durScale: 0.05},
	}
}

func fullScales() []scaleSpec {
	return []scaleSpec{
		{name: "iridium-66", cons: constellation.Iridium, minElevDeg: 5, intensity: 12, durScale: 0.05},
		{name: "midsize-396", cons: constellation.MidSize1, minElevDeg: 10, intensity: 125, durScale: 0.05},
		{name: "midsize-1584", cons: constellation.MidSize2, minElevDeg: 25, intensity: 250, durScale: 0.05},
		{name: "starlink-4236", cons: constellation.StarlinkPhase1, minElevDeg: 25, intensity: 500, durScale: 0.05},
	}
}

func scales(opt Options) []scaleSpec {
	if opt.Full {
		return fullScales()
	}
	return ciScales()
}

// newScenario builds a sim scenario for a scale spec.
func newScenario(sc scaleSpec, mode topology.CrossShellMode, intensity float64, seed int64) *sim.Scenario {
	if intensity == 0 {
		intensity = sc.intensity
	}
	return sim.NewScenario(sc.cons(), sim.ScenarioConfig{
		Mode:              mode,
		Intensity:         intensity,
		Seed:              seed,
		MinElevDeg:        sc.minElevDeg,
		FlowDurationScale: sc.durScale,
	})
}

// labelSolver returns the reference solver used for training labels and
// offline optima (the commercial-solver role).
func labelSolver() sim.Allocator { return baselines.LPAuto{} }

// trainSaTE generates nSamples problems spaced over time from the scenario,
// labels them with the reference solver, and trains a fresh SaTE model.
func trainSaTE(s *sim.Scenario, nSamples, epochs int, seed int64) (*core.Model, time.Duration, error) {
	samples, err := makeSamples(s, nSamples)
	if err != nil {
		return nil, 0, err
	}
	return trainOn(samples, epochs, seed)
}

// trainOn fits a fresh default-config SaTE model to the samples and reports
// the training wall time.
func trainOn(samples []*core.Sample, epochs int, seed int64) (*core.Model, time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	m := core.NewModel(cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = epochs
	start := time.Now()
	if _, err := core.Train(m, samples, tc); err != nil {
		return nil, 0, err
	}
	return m, time.Since(start), nil
}

// makeSamples builds labelled training samples from a scenario at spaced
// steady-state instants, unaligned with topology periods.
func makeSamples(s *sim.Scenario, n int) ([]*core.Sample, error) {
	return s.Samples(labelSolver(), sim.Instants(ciTrainStart, 97, n))
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
	return c.SolveLatency, err
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
