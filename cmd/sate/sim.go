package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"sate/internal/autodiff"
	"sate/internal/core"
	"sate/internal/sim"
)

// sate sim runs the online TE evaluation of Sec. 5.4: it trains (or loads)
// a SaTE model, then plays the scenario forward, recomputing each solver's
// allocation at its table interval and charging it for staleness.
//
//	sate sim -cons iridium -intensity 8 -solvers sate,lp,ecmp-wf -horizon 60
//	sate sim -cons iridium -model model.gob
var simCommand = command{
	name:    "sim",
	summary: "online evaluation: satisfied demand per solver, charged for staleness (Sec. 5.4)",
	spec: sim.Spec{Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	}},
	keys:  []string{"cons", "mode", "intensity", "seed", "min-elev", "dur-scale", "model"},
	setup: simSetup,
}

func simSetup(fs *flag.FlagSet) func(sim.Spec) error {
	var (
		solvers = fs.String("solvers", "sate,lp,pop,ecmp-wf", "comma-separated solvers to evaluate: "+strings.Join(sim.SolverNames(), " | "))
		horizon = fs.Int("horizon", 60, "evaluation horizon, seconds")
		start   = fs.Float64("start", 300, "evaluation start time (past arrival ramp-up)")
		step    = fs.Float64("step", 2, "metric sampling step, seconds; SaTE recomputes every step")
		samples = fs.Int("samples", 3, "training samples when training (no -model)")
		epochs  = fs.Int("epochs", 30, "training epochs when training (no -model)")
	)
	return func(spec sim.Spec) error {
		cons, err := spec.Constellation()
		if err != nil {
			return err
		}
		names := strings.Split(*solvers, ",")
		for _, name := range names {
			if !slices.Contains(sim.SolverNames(), name) {
				return fmt.Errorf("unknown solver %q in -solvers (want %s)", name, strings.Join(sim.SolverNames(), " | "))
			}
		}
		// The SaTE row without -model trains on its own scenario, seeded
		// apart from the evaluated one.
		train := func() (sim.Allocator, error) {
			fmt.Printf("training SaTE on %s (%d samples, %d epochs)...\n", cons.Name, *samples, *epochs)
			ts := spec
			ts.Seed += 1000
			scen, err := ts.Scenario()
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig()
			cfg.Seed = spec.Seed
			model := core.NewModel(cfg)
			r := sim.Recipe{Instants: sim.Instants(150, 97, *samples), TrainConfig: core.TrainConfig{Epochs: *epochs}}
			if _, err := scen.Fit(model, r); err != nil {
				return nil, err
			}
			return model, nil
		}

		fmt.Printf("online evaluation: %s, %s, lambda=%.0f flows/s, t=[%.0f, %.0f)s\n",
			cons.Name, spec.Mode, spec.Intensity, *start, *start+float64(*horizon))
		fmt.Printf("gemm kernel: %s\n", autodiff.GemmKernel())
		for _, name := range names {
			one := spec
			one.Solver = name
			var al sim.Allocator
			if name == "sate" && spec.Model == "" {
				al, err = train()
			} else {
				al, err = one.NewSolver()
				if err == nil && name == "sate" {
					fmt.Printf("loaded model from %s\n", spec.Model)
				}
			}
			if err != nil {
				return err
			}
			interval := sim.RecomputeIntervalSec(name)
			if interval == 0 {
				interval = *step
			}
			scen, err := spec.Scenario()
			if err != nil {
				return err
			}
			res, err := scen.RunOnline(al, sim.OnlineConfig{
				HorizonSec:  *horizon,
				StartSec:    *start,
				IntervalSec: interval,
				StepSec:     *step,
			})
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s satisfied %5.1f%%  (%d solves, mean latency %s, interval %.0fs)\n",
				name, 100*res.SatisfiedMean, res.Recomputations,
				res.MeanSolveLatency.Round(1000), interval)
		}
		return nil
	}
}
