package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/paths"
	"sate/internal/sim"
	"sate/internal/topology"
)

// sate topology analyses the link dynamics of a constellation: topology
// holding time (Sec. 2.3.1), link churn, connectivity, link exclusion for
// growing TE intervals (Sec. 2.3.2), and configured-path obsolescence.
//
//	sate topology -cons starlink -snapshots 4000 -dt 0.0125
//	sate topology -cons midsize1 -mode ground-relays
var topologyCommand = command{
	name:    "topology",
	summary: "topology holding time, link churn, link exclusion and path obsolescence (Sec. 2.3)",
	spec:    sim.Spec{Cons: "midsize1", ScenarioConfig: sim.ScenarioConfig{Seed: 1}},
	keys:    []string{"cons", "mode", "seed"},
	setup:   topologySetup,
}

func topologySetup(fs *flag.FlagSet) func(sim.Spec) error {
	var (
		nSnaps = fs.Int("snapshots", 2000, "number of snapshots to sample")
		dt     = fs.Float64("dt", 0.0125, "sampling interval in seconds")
		pairs  = fs.Int("pairs", 200, "random pairs for path-obsolescence analysis")
		cache  = fs.String("cache", "", "snapshot series cache file: read if present, else generate and write")
	)
	return func(spec sim.Spec) error {
		cons, err := spec.Constellation()
		if err != nil {
			return err
		}
		m := spec.Mode
		cfg := topology.DefaultConfig(m)
		if m == topology.CrossShellGroundRelays {
			grid := groundnet.SyntheticPopulation(spec.Seed)
			cfg.Relays = groundnet.PlaceSites(222, grid.Probabilities(0), rand.New(rand.NewSource(spec.Seed)))
		}
		gen := topology.NewGenerator(cons, cfg)

		fmt.Printf("constellation %s: %d satellites, %d shells, mode %s\n",
			cons.Name, cons.Size(), len(cons.Shells), m)

		s0 := gen.Snapshot(0)
		kinds := map[topology.LinkKind]int{}
		for _, l := range s0.Links {
			kinds[l.Kind]++
		}
		fmt.Printf("links at t=0: %d total (%v), %d connected components\n",
			len(s0.Links), kinds, s0.ConnectedComponents())

		// THT. The snapshot series can be cached on disk: full-scale runs
		// sample tens of thousands of snapshots and regenerating them
		// dominates runtime.
		var snaps []*topology.Snapshot
		if *cache != "" {
			if f, err := os.Open(*cache); err == nil {
				snaps, err = topology.ReadSeries(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return fmt.Errorf("reading cache %s: %w", *cache, err)
				}
				fmt.Printf("loaded %d snapshots from %s\n", len(snaps), *cache)
			}
		}
		if snaps == nil {
			snaps = gen.Series(0, *dt, *nSnaps)
			if *cache != "" {
				f, err := os.Create(*cache)
				if err == nil {
					err = topology.WriteSeries(f, snaps)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "writing cache %s: %v\n", *cache, err)
				} else {
					fmt.Printf("cached %d snapshots to %s\n", len(snaps), *cache)
				}
			}
		}
		tht := topology.MeasureTHT(snaps, *dt)
		fmt.Printf("THT over %d snapshots at %.1f ms: mean %.1f ms, max %.1f ms (%d holds)\n",
			*nSnaps, *dt*1000, tht.Mean()*1000, tht.Max()*1000, len(tht.HoldTimesSec))

		churn := topology.MeasureChurn(snaps)
		fmt.Printf("churn: %d/%d steps changed, +%d/-%d links\n",
			churn.ChangedSteps, churn.Steps, churn.TotalAdded, churn.TotalRemoved)

		// Link exclusion for growing TE intervals (Fig. 4 c), as far as the
		// sampled series reaches.
		for _, steps := range []int{1, 8, 80, 800} {
			if steps > len(snaps) {
				break
			}
			fmt.Printf("TE interval %7.1f ms: %5.1f%% of changeable ISLs excluded\n",
				float64(steps)**dt*1000, 100*topology.LinkExclusion(snaps, steps))
		}

		// Path obsolescence over longer horizons.
		router := paths.NewGridRouter(cons, s0)
		rng := rand.New(rand.NewSource(spec.Seed))
		var configured []paths.Path
		for i := 0; i < *pairs; i++ {
			a := constellation.SatID(rng.Intn(cons.Size()))
			b := constellation.SatID(rng.Intn(cons.Size()))
			if a != b {
				configured = append(configured, router.KShortest(a, b, 10)...)
			}
		}
		fmt.Printf("configured %d candidate paths from %d pairs\n", len(configured), *pairs)
		for _, tm := range []float64{10, 30, 60, 150} {
			st := gen.Snapshot(tm)
			fmt.Printf("  obsolete after %4.0f s: %5.1f%%\n", tm,
				100*paths.ObsoleteFraction(configured, st))
		}
		return nil
	}
}
