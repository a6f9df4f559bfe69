// Command sate-train trains a SaTE model on a constellation scenario and
// reports training progress plus held-out evaluation against the reference
// LP solver and the heuristic baselines.
//
// Usage:
//
//	sate-train -cons iridium -samples 6 -epochs 20 -intensity 80
//	sate-train -cons iridium -metrics -  # dump Prometheus metrics to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/sim"
	"sate/internal/topology"
)

func main() {
	var (
		consName  = flag.String("cons", "iridium", "constellation: starlink | iridium | midsize1 | midsize2")
		samples   = flag.Int("samples", 5, "training samples (labelled topology/traffic instants)")
		epochs    = flag.Int("epochs", 15, "training epochs")
		intensity = flag.Float64("intensity", 60, "traffic intensity, flows/s")
		embed     = flag.Int("embed", 32, "embedding dimension (paper: 768)")
		minElev   = flag.Float64("min-elev", 10, "user min elevation, degrees")
		seed      = flag.Int64("seed", 1, "random seed")
		savePath  = flag.String("save", "", "save the trained model to this file")
		loadPath  = flag.String("load", "", "load a model instead of training from scratch")
		metrics   = flag.String("metrics", "", "write Prometheus-text metrics here after the run (\"-\" = stderr)")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		reg.CollectGoRuntime()
		par.Observe(reg)
	}

	cons, ok := constellation.ByName(*consName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown constellation %q\n", *consName)
		os.Exit(2)
	}
	scen := sim.NewScenario(cons, sim.ScenarioConfig{
		Mode:       topology.CrossShellLasers,
		Intensity:  *intensity,
		Seed:       *seed,
		MinElevDeg: *minElev,
	})
	solver := baselines.LPAuto{}

	fmt.Printf("generating %d labelled samples on %s (%d sats)...\n", *samples, cons.Name, cons.Size())
	ds, err := scen.Samples(solver, sim.Instants(15, 37, *samples))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, s := range ds {
		var optimal float64
		for _, x := range s.Labels {
			optimal += x
		}
		fmt.Printf("  sample %d: %d flows, %d path vars, optimal %.1f Mbps\n",
			i, len(s.Problem.Flows), s.Problem.NumPaths(), optimal)
	}

	var model *core.Model
	if *loadPath != "" {
		var err error
		model, err = core.LoadFile(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded model from %s: %d parameters\n", *loadPath, model.NumParams())
	} else {
		cfg := core.DefaultConfig()
		cfg.EmbedDim = *embed
		cfg.Seed = *seed
		model = core.NewModel(cfg)
		fmt.Printf("model: %d parameters (embed %d)\n", model.NumParams(), *embed)
	}

	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Registry = reg
	tc.Log = func(ep int, loss float64) {
		if ep%5 == 0 || ep == *epochs-1 {
			fmt.Printf("  epoch %3d  loss %.5f\n", ep, loss)
		}
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	if _, err := core.Train(model, ds, tc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	// Allocation delta over the whole run: with the reused-tape arena the
	// steady-state per-epoch cost should be near zero after warm-up.
	allocMB := float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / (1 << 20)
	fmt.Printf("trained in %s (%.1f MiB allocated, %d GC cycles, %.2f MiB/epoch)\n",
		elapsed.Round(time.Millisecond), allocMB,
		memAfter.NumGC-memBefore.NumGC, allocMB/float64(*epochs))
	if *savePath != "" {
		if err := model.SaveFile(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved model to %s\n", *savePath)
	}

	// Held-out evaluation.
	fmt.Println("held-out evaluation (unseen topologies + traffic):")
	err = scen.SolveEach(model, sim.Instants(500, 23, 3), func(c *sim.Cycle) {
		p := c.Problem
		ref, _ := solver.Solve(p)
		ecmp, _ := (baselines.ECMPWF{}).Solve(p)
		fmt.Printf("  t=%3.0f: sate %.1f%% in %s | optimal %.1f%% | ecmp-wf %.1f%%\n",
			c.TimeSec,
			100*p.SatisfiedDemand(c.Alloc), c.SolveLatency.Round(time.Microsecond),
			100*p.SatisfiedDemand(ref), 100*p.SatisfiedDemand(ecmp))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if reg != nil {
		out := os.Stderr
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
			out = f
		}
		if err := reg.WritePrometheus(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
