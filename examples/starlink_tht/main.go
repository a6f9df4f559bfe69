// starlink_tht reproduces the Sec. 2.3.1 motivation on the real Starlink
// Phase 1 shell parameters: how long does a 4236-satellite topology hold, and
// how quickly do configured paths go stale? This drives the internal
// topology/paths packages directly (the analysis layer below the public TE
// API).
package main

import (
	"fmt"
	"math/rand"

	"sate/internal/constellation"
	"sate/internal/paths"
	"sate/internal/topology"
)

func main() {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))

	s0 := gen.Snapshot(0)
	fmt.Printf("Starlink Phase 1: %d satellites, %d ISLs at t=0, %d components\n",
		cons.Size(), len(s0.Links), s0.ConnectedComponents())

	// Topology holding time over a short window (12.5 ms sampling, as in the
	// paper; extend -snapshots with `sate topology` for the full 40k run).
	const dt = 0.0125
	const n = 1200 // 15 seconds
	snaps := gen.Series(0, dt, n)
	tht := topology.MeasureTHT(snaps, dt)
	fmt.Printf("THT over %.0f s: mean %.1f ms, max %.1f ms (%d topology changes)\n",
		dt*n, tht.Mean()*1000, tht.Max()*1000, len(tht.HoldTimesSec)-1)

	// Link exclusion for growing TE intervals (Fig. 4 c).
	for _, steps := range []int{1, 8, 80, 800} {
		fmt.Printf("TE interval %7.1f ms -> %.1f%% changeable ISLs excluded\n",
			float64(steps)*dt*1000, 100*topology.LinkExclusion(snaps, steps))
	}

	// Configured-path obsolescence (Fig. 4 b).
	router := paths.NewGridRouter(cons, s0)
	rng := rand.New(rand.NewSource(7))
	var configured []paths.Path
	for i := 0; i < 300; i++ {
		a := constellation.SatID(rng.Intn(cons.Size()))
		b := constellation.SatID(rng.Intn(cons.Size()))
		if a != b {
			configured = append(configured, router.KShortest(a, b, 10)...)
		}
	}
	fmt.Printf("configured %d candidate paths\n", len(configured))
	for _, tm := range []float64{10, 60, 150} {
		st := gen.Snapshot(tm)
		fmt.Printf("  after %3.0f s: %.1f%% obsolete\n", tm,
			100*paths.ObsoleteFraction(configured, st))
	}
}
