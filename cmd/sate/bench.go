package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sate/internal/autodiff"
	"sate/internal/experiments"
	"sate/internal/sim"
)

// sate bench runs the paper-reproduction experiments and prints each
// table/figure as an aligned text table.
//
//	sate bench -list
//	sate bench -exp fig8a
//	sate bench -exp all -scale full
//	sate bench -exp fig10ab -seed 7
var benchCommand = command{
	name:    "bench",
	summary: "run the paper's tables and figures (internal/experiments)",
	spec:    sim.Spec{ScenarioConfig: sim.ScenarioConfig{Seed: 1}},
	keys:    []string{"seed"},
	setup:   benchSetup,
}

func benchSetup(fs *flag.FlagSet) func(sim.Spec) error {
	var (
		exp    = fs.String("exp", "", "experiment ID to run, or 'all'")
		scale  = fs.String("scale", "ci", "execution scale: ci | full")
		list   = fs.Bool("list", false, "list experiment IDs and exit")
		csvDir = fs.String("csv", "", "also write each report as <dir>/<id>.csv")
	)
	return func(spec sim.Spec) error {
		if *list {
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
			return nil
		}
		if *exp == "" {
			return fmt.Errorf("want -exp <id>|all [-scale ci|full] [-seed N]; -list for IDs")
		}
		ids := []string{*exp}
		if *exp == "all" {
			ids = experiments.IDs()
		}
		for _, id := range ids {
			if _, ok := experiments.Registry[id]; !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
		}
		opt := experiments.Options{Full: *scale == "full", Seed: spec.Seed}

		fmt.Printf("gemm kernel: %s\n\n", autodiff.GemmKernel())
		failed := 0
		for _, id := range ids {
			start := time.Now()
			rep, err := experiments.Registry[id](opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
				failed++
				continue
			}
			fmt.Println(rep)
			fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
			if *csvDir != "" {
				path := filepath.Join(*csvDir, id+".csv")
				if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
					failed++
				}
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d experiments failed", failed, len(ids))
		}
		return nil
	}
}
