// Command benchmark is the repo's one TE-cycle benchmark: it drives the
// product from outside for a fixed time on one of four workloads and prints
// every metric by name with its unit (see README.md and ../BENCHMARK.json).
//
//	go run ./benchmark -workload solve-ring-396 -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -workload all -runs 3 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload name, a comma-separated list run in that order, or all")
	seed := fs.Int64("seed", 1, "workload seed: slides the replayed window and seeds failures, fixtures and the packet engine")
	seconds := fs.Float64("seconds", 12, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	runs := fs.Int("runs", 1, "runs per workload")
	out := fs.String("out", "", "write every run's result to this file as a result set for -compare")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the file declaring metrics, directions and bounds")
	fit := fs.String("fit-model", "", "fit the SaTE model by the quickstart recipe, write it to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *fit != "":
		return fitModel(*fit)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result-set files")
		}
		table, err := compareSets(*spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(table)
		return err
	}

	var chosen []*workload
	cat := catalogue()
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			chosen = append(chosen, cat...)
			continue
		}
		w := find(cat, name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		chosen = append(chosen, w)
	}

	ctx := context.Background()
	var set []*result
	failed := false
	for _, w := range chosen {
		for i := 0; i < *runs; i++ {
			res, rec, err := runWorkload(ctx, w, *seed, *seconds, minEpisodes, *trace == 1)
			if err != nil {
				return err
			}
			if *traceOut != "" && *trace == 1 {
				if err := rec.writeTrace(*traceOut); err != nil {
					return err
				}
			}
			text, err := report(res)
			if err != nil {
				return err
			}
			if _, err := os.Stdout.Write(text); err != nil {
				return err
			}
			set = append(set, res)
			failed = failed || !res.Correct
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a check failed; see the errors above")
	}
	return nil
}

func find(cat []*workload, name string) *workload {
	for _, w := range cat {
		if w.name == name {
			return w
		}
	}
	return nil
}

// report prints every metric by name with its unit, any check failures, and
// last the machine-readable result line.
func report(res *result) ([]byte, error) {
	w := &bytes.Buffer{}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v cycles=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %v %s\n", name, m.Value, m.Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return nil, err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Bytes(), nil
}
