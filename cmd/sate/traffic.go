package main

import (
	"flag"
	"fmt"

	"sate/internal/sim"
)

// sate traffic generates the scenario's traffic and reports its matrices'
// statistics: non-zero pairs, sparsity (the property traffic pruning
// exploits), total demand, and per-class mix.
//
//	sate traffic -cons starlink -intensity 500 -duration 60
var trafficCommand = command{
	name:    "traffic",
	summary: "traffic-matrix statistics: active flows, sparsity, demand, class mix",
	spec: sim.Spec{Cons: "starlink", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 125, Seed: 1, MinElevDeg: 25,
		Users: 3_000_000, UserClusters: 2000, Gateways: 1000, Relays: 222,
	}},
	keys:  []string{"cons", "intensity", "seed", "min-elev", "users", "gateways"},
	setup: trafficSetup,
}

func trafficSetup(fs *flag.FlagSet) func(sim.Spec) error {
	duration := fs.Float64("duration", 60, "simulated seconds")
	return func(spec sim.Spec) error {
		scen, err := spec.Scenario()
		if err != nil {
			return err
		}
		seg := scen.Seg
		fmt.Printf("ground segment: %d users in %d clusters, %d gateways, %d relays\n",
			seg.TotalUsers(), len(seg.UserClusters), len(seg.Gateways), len(seg.Relays))

		gen := scen.Traffic
		for _, t := range []float64{*duration / 4, *duration / 2, *duration} {
			// Users are mapped against the satellites' positions at t.
			gen.AdvanceTo(t)
			scen.Loc.Update(scen.Cons.PositionsECEF(t, nil))
			m := gen.Matrix(scen.Loc, scen.MinElevRad, scen.Cons.Size())
			classCount := map[int]int{}
			for _, f := range gen.ActiveFlows() {
				classCount[f.Class]++
			}
			fmt.Printf("t=%5.0fs: %6d active flows %v | matrix: %5d non-zero pairs (density %.5f%%), total %.0f Mbps\n",
				t, gen.ActiveCount(), classCount,
				m.NonZeroPairs(), 100*m.DensityFraction(), m.Total())
		}
		return nil
	}
}
