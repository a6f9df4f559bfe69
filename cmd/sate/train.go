package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/sim"
)

// sate train trains a SaTE model on the scenario and reports training
// progress plus held-out evaluation against the reference LP solver and
// ECMP-WF.
//
//	sate train -cons iridium -samples 6 -epochs 20 -intensity 80 -save m.gob
//	sate train -cons iridium -model m.gob -epochs 5   # continue from a saved model
//	sate train -cons iridium -metrics -                # Prometheus metrics to stderr
var trainCommand = command{
	name:    "train",
	summary: "train a SaTE model on LP-labelled instants, then evaluate it held out",
	spec: sim.Spec{Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 60, Seed: 1, MinElevDeg: 10,
	}},
	keys:  []string{"cons", "intensity", "seed", "min-elev", "model"},
	setup: trainSetup,
}

func trainSetup(fs *flag.FlagSet) func(sim.Spec) error {
	var (
		samples  = fs.Int("samples", 5, "training samples (labelled topology/traffic instants)")
		epochs   = fs.Int("epochs", 15, "training epochs")
		embed    = fs.Int("embed", 32, "embedding dimension (paper: 768); ignored with -model")
		savePath = fs.String("save", "", "save the trained model to this file")
		metrics  = fs.String("metrics", "", "write Prometheus-text metrics here after the run (\"-\" = stderr)")
	)
	return func(spec sim.Spec) error {
		var reg *obs.Registry
		if *metrics != "" {
			reg = obs.NewRegistry()
			reg.CollectGoRuntime()
			par.Observe(reg)
		}

		scen, err := spec.Scenario()
		if err != nil {
			return err
		}

		var model *core.Model
		if spec.Model != "" {
			if model, err = core.LoadFile(spec.Model); err != nil {
				return err
			}
			fmt.Printf("loaded model from %s: %d parameters\n", spec.Model, model.NumParams())
		} else {
			cfg := core.DefaultConfig()
			cfg.EmbedDim = *embed
			cfg.Seed = spec.Seed
			model = core.NewModel(cfg)
			fmt.Printf("model: %d parameters (embed %d)\n", model.NumParams(), *embed)
		}

		fmt.Printf("training on %d LP-labelled instants of %s (%d sats)...\n", *samples, scen.Cons.Name, scen.Cons.Size())
		r := sim.Recipe{Instants: sim.Instants(15, 37, *samples), TrainConfig: core.TrainConfig{
			Epochs:   *epochs,
			Registry: reg,
			Log: func(ep int, loss float64) {
				if ep%5 == 0 || ep == *epochs-1 {
					fmt.Printf("  epoch %3d  loss %.5f\n", ep, loss)
				}
			},
		}}
		start := time.Now()
		if _, err := scen.Fit(model, r); err != nil {
			return err
		}
		fmt.Printf("labelled and trained in %s\n", time.Since(start).Round(time.Millisecond))
		if *savePath != "" {
			if err := model.SaveFile(*savePath); err != nil {
				return err
			}
			fmt.Printf("saved model to %s\n", *savePath)
		}

		// Held-out evaluation.
		fmt.Println("held-out evaluation (unseen topologies + traffic):")
		err = scen.SolveEach(model, sim.Instants(500, 23, 3), func(c *sim.Cycle) error {
			p := c.Problem
			ref, err := (baselines.LPAuto{}).Solve(p)
			if err != nil {
				return fmt.Errorf("optimal reference at t=%g: %w", c.TimeSec, err)
			}
			ecmp, err := (baselines.ECMPWF{}).Solve(p)
			if err != nil {
				return fmt.Errorf("ecmp-wf at t=%g: %w", c.TimeSec, err)
			}
			fmt.Printf("  t=%3.0f: sate %.1f%% in %s | optimal %.1f%% | ecmp-wf %.1f%%\n",
				c.TimeSec,
				100*p.SatisfiedDemand(c.Alloc), c.Stages.Solve.Round(time.Microsecond),
				100*p.SatisfiedDemand(ref), 100*p.SatisfiedDemand(ecmp))
			return nil
		})
		if err != nil {
			return err
		}

		if reg == nil {
			return nil
		}
		if *metrics == "-" {
			return reg.WritePrometheus(os.Stderr)
		}
		f, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			_ = f.Close() // the write error is the one to report
			return err
		}
		return f.Close()
	}
}
