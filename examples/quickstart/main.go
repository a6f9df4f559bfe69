// Quickstart: build a small constellation scenario, train a SaTE model on a
// handful of LP-labelled instants, and compare its millisecond inference
// against the reference solver on unseen traffic.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"sate"
)

func main() {
	// A small two-shell constellation keeps the example fast; swap in
	// sate.Starlink() for the full 4236-satellite Phase 1 configuration.
	cons := sate.Iridium()
	scen := sate.NewScenario(cons, sate.ScenarioConfig{
		Mode:              sate.CrossShellLasers,
		Intensity:         8, // flows per second
		Seed:              1,
		MinElevDeg:        10,   // small constellations need a permissive elevation mask
		FlowDurationScale: 0.05, // reach steady-state load quickly (cf. paper Sec. 4 fn. 5)
	})

	fmt.Printf("training SaTE on %s (%d satellites)...\n", cons.Name, cons.Size())
	model, err := sate.Train(scen, sate.TrainOptions{Samples: 4, Epochs: 30, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate on an unseen instant: different topology, different flows.
	problem, _, matrix, err := scen.ProblemAt(480)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unseen instant: %d demands (%.0f Mbps total), %d path variables\n",
		len(problem.Flows), matrix.Total(), problem.NumPaths())

	start := time.Now()
	alloc, err := model.Solve(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SaTE:       %.1f%% satisfied in %s\n",
		100*problem.SatisfiedDemand(alloc), time.Since(start).Round(time.Microsecond))

	solvers := sate.Solvers()
	for _, name := range slices.Sorted(maps.Keys(solvers)) {
		if name == "gk" {
			continue // lp already covers the reference role here
		}
		start = time.Now()
		a, err := solvers[name].Solve(problem)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %.1f%% satisfied in %s\n", name+":",
			100*problem.SatisfiedDemand(a), time.Since(start).Round(time.Microsecond))
	}
}
