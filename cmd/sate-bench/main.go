// Command sate-bench runs the paper-reproduction experiments and prints each
// table/figure as an aligned text table.
//
// Usage:
//
//	sate-bench -list
//	sate-bench -exp fig8a
//	sate-bench -exp all -scale full
//	sate-bench -exp fig10ab -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sate/internal/autodiff"
	"sate/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment ID to run, or 'all'")
		scale  = flag.String("scale", "ci", "execution scale: ci | full")
		seed   = flag.Int64("seed", 1, "random seed")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir = flag.String("csv", "", "also write each report as <dir>/<id>.csv")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: sate-bench -exp <id>|all [-scale ci|full] [-seed N]; -list for IDs")
		os.Exit(2)
	}
	opt := experiments.Options{Full: *scale == "full", Seed: *seed}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	fmt.Printf("gemm kernel: %s\n\n", autodiff.GemmKernel())
	failed := 0
	for _, id := range ids {
		d, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := d(opt)
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
		os.Exit(1)
	}
}
