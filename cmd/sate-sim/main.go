// Command sate-sim runs the online TE evaluation of Sec. 5.4 from the
// command line: it trains (or loads) a SaTE model, then plays the scenario
// forward, recomputing each method's allocation at its configured interval
// and charging it for staleness.
//
// Usage:
//
//	sate-sim -cons iridium -intensity 8 -methods sate,lp,ecmp-wf -horizon 60
//	sate-sim -cons iridium -model model.gob -interval-lp 47
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/sim"
	"sate/internal/topology"
)

func main() {
	var (
		consName  = flag.String("cons", "iridium", "constellation: starlink | iridium | midsize1 | midsize2")
		mode      = flag.String("mode", "lasers", "cross-shell mode: lasers | ground-relays")
		intensity = flag.Float64("intensity", 8, "traffic intensity, flows/s")
		methods   = flag.String("methods", "sate,lp,pop,ecmp-wf", "comma-separated methods to evaluate")
		horizon   = flag.Int("horizon", 60, "evaluation horizon, seconds")
		start     = flag.Float64("start", 300, "evaluation start time (past arrival ramp-up)")
		step      = flag.Float64("step", 2, "metric sampling step, seconds")
		durScale  = flag.Float64("dur-scale", 0.05, "flow duration scale (1 = paper's Table 2)")
		minElev   = flag.Float64("min-elev", 10, "user min elevation, degrees")
		modelPath = flag.String("model", "", "load a trained SaTE model instead of training")
		samples   = flag.Int("samples", 3, "training samples when training")
		epochs    = flag.Int("epochs", 30, "training epochs when training")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	cons, ok := constellation.ByName(*consName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown constellation %q\n", *consName)
		os.Exit(2)
	}
	var m topology.CrossShellMode
	switch *mode {
	case "lasers":
		m = topology.CrossShellLasers
	case "ground-relays":
		m = topology.CrossShellGroundRelays
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	mkScenario := func(seedOffset int64) *sim.Scenario {
		return sim.NewScenario(cons, sim.ScenarioConfig{
			Mode:              m,
			Intensity:         *intensity,
			Seed:              *seed + seedOffset,
			MinElevDeg:        *minElev,
			FlowDurationScale: *durScale,
		})
	}

	// Build the method table. Intervals follow the paper's Starlink-scale
	// protocol: SaTE recomputes every step; the heavy methods at their
	// Fig. 8 (a) latencies.
	type entry struct {
		al       sim.Allocator
		interval float64
	}
	table := map[string]func() (entry, error){
		"sate": func() (entry, error) {
			var model *core.Model
			if *modelPath != "" {
				var err error
				model, err = core.LoadFile(*modelPath)
				if err != nil {
					return entry{}, err
				}
				fmt.Printf("loaded model from %s\n", *modelPath)
			} else {
				fmt.Printf("training SaTE on %s (%d samples, %d epochs)...\n", cons.Name, *samples, *epochs)
				ds, err := mkScenario(1000).Samples(baselines.LPAuto{}, sim.Instants(150, 97, *samples))
				if err != nil {
					return entry{}, err
				}
				cfg := core.DefaultConfig()
				cfg.Seed = *seed
				model = core.NewModel(cfg)
				tc := core.DefaultTrainConfig()
				tc.Epochs = *epochs
				if _, err := core.Train(model, ds, tc); err != nil {
					return entry{}, err
				}
			}
			return entry{al: model, interval: *step}, nil
		},
		"lp":      func() (entry, error) { return entry{al: baselines.LPAuto{}, interval: 47}, nil },
		"gk":      func() (entry, error) { return entry{al: baselines.GK{Epsilon: 0.05}, interval: 47}, nil },
		"pop":     func() (entry, error) { return entry{al: &baselines.POP{K: 4, Seed: *seed}, interval: 25}, nil },
		"ecmp-wf": func() (entry, error) { return entry{al: baselines.ECMPWF{}, interval: 54}, nil },
		"maxmin-fair": func() (entry, error) {
			return entry{al: baselines.MaxMinFair{}, interval: 47}, nil
		},
	}

	fmt.Printf("online evaluation: %s, %s, lambda=%.0f flows/s, t=[%.0f, %.0f)s\n",
		cons.Name, m, *intensity, *start, *start+float64(*horizon))
	fmt.Printf("gemm kernel: %s\n", autodiff.GemmKernel())
	for _, name := range strings.Split(*methods, ",") {
		name = strings.TrimSpace(name)
		mk, ok := table[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown method %q (known: sate lp gk pop ecmp-wf maxmin-fair)\n", name)
			os.Exit(2)
		}
		e, err := mk()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := mkScenario(0).RunOnline(e.al, sim.OnlineConfig{
			HorizonSec:  *horizon,
			StartSec:    *start,
			IntervalSec: e.interval,
			StepSec:     *step,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-12s satisfied %5.1f%%  (%d solves, mean latency %s, interval %.0fs)\n",
			name, 100*res.SatisfiedMean, res.Recomputations,
			res.MeanSolveLatency.Round(1000), e.interval)
	}
}
