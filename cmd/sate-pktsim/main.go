// Command sate-pktsim runs the discrete-event packet engine (internal/pktsim,
// DESIGN.md §15) over one TE recompute cycle and prints the per-packet
// accounting: latency quantiles, queue high water, and drops by reason.
//
// It builds a scenario, solves the TE problem at -t with the chosen solver,
// and executes the allocation at packet granularity. With -update-at > 0 it
// also solves the problem -interval seconds earlier and replays the rule push:
// the network starts on the stale allocation and each satellite switches at
// -update-at plus its rule-distribution delay (Appendix D), so the printed
// loss includes the stale-rule window.
//
// Usage:
//
//	sate-pktsim -solver ecmp -t 700 -horizon 2
//	sate-pktsim -solver lp -update-at 0.8 -burst-factor 3 -burst-start 0.5
//	sate-pktsim -planes 8 -sats 10 -intensity 40 -spikes 3 -handovers 2 -out run.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/pktsim"
	"sate/internal/sim"
	"sate/internal/topology"
)

func solverFor(name string, seed int64) (sim.Allocator, error) {
	switch name {
	case "ecmp":
		return baselines.ECMPWF{}, nil
	case "lp":
		return baselines.LPAuto{}, nil
	case "pop":
		return &baselines.POP{K: 4, Seed: seed}, nil
	case "maxmin":
		return baselines.MaxMinFair{}, nil
	}
	return nil, fmt.Errorf("unknown solver %q (want ecmp|lp|pop|maxmin)", name)
}

func modeFor(name string) (topology.CrossShellMode, error) {
	switch name {
	case "lasers":
		return topology.CrossShellLasers, nil
	case "relays":
		return topology.CrossShellGroundRelays, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want lasers|relays)", name)
}

func main() {
	var (
		planes    = flag.Int("planes", 5, "constellation planes")
		satsPer   = flag.Int("sats", 6, "satellites per plane")
		mode      = flag.String("mode", "lasers", "cross-shell mode: lasers | relays")
		intensity = flag.Float64("intensity", 30, "traffic intensity (flow arrivals/s)")
		solver    = flag.String("solver", "ecmp", "TE solver: ecmp | lp | pop | maxmin")
		evalT     = flag.Float64("t", 700, "scenario instant of the evaluated allocation (s)")
		interval  = flag.Float64("interval", 2, "recompute interval: the stale allocation is solved at t-interval (s)")
		seed      = flag.Int64("seed", 1, "random seed (traffic, jitter, disturbances)")

		horizon    = flag.Float64("horizon", 1, "injection horizon (s); in-flight packets drain past it")
		queue      = flag.Int("queue", 64, "per-directed-link FIFO capacity (packets)")
		packetBits = flag.Int("packet-bits", 12000, "packet size on the wire (bits)")
		jitter     = flag.Float64("jitter", 0.03, "per-hop jitter as a fraction of propagation delay")
		spikes     = flag.Int("spikes", 0, "seeded propagation-delay spikes")
		handovers  = flag.Int("handovers", 0, "seeded link-down handover windows")

		burstStart  = flag.Float64("burst-start", 0, "burst window start (s)")
		burstDur    = flag.Float64("burst-dur", 0, "burst window duration (s); 0 disables the burst")
		burstFactor = flag.Float64("burst-factor", 3, "burst rate multiplier")

		updateAt = flag.Float64("update-at", 0, "rule-push instant within the run (s); 0 disables the update window")
		out      = flag.String("out", "", "also write the full result (incl. per-packet latencies) as JSON")
	)
	flag.Parse()

	csMode, err := modeFor(*mode)
	if err != nil {
		fatal(err)
	}
	al, err := solverFor(*solver, *seed)
	if err != nil {
		fatal(err)
	}

	scen := sim.NewScenario(constellation.Toy(*planes, *satsPer), sim.ScenarioConfig{
		Mode:      csMode,
		Intensity: *intensity,
		Seed:      *seed,
		Users:     2000, UserClusters: 60, Gateways: 8, Relays: 30, MinElevDeg: 5,
	})

	ctx := context.Background()
	cur, err := scen.RunCycle(ctx, al, *evalT)
	if err != nil {
		fatal(err)
	}
	if len(cur.Problem.Flows) == 0 {
		fatal(fmt.Errorf("no flows at t=%v (raise -intensity or -t)", *evalT))
	}
	var prev *sim.Cycle
	if *updateAt > 0 {
		if prev, err = scen.RunCycle(ctx, al, *evalT-*interval); err != nil {
			fatal(err)
		}
	}
	spec := (&sim.PacketReplay{UpdateAtSec: *updateAt}).RunSpec(scen, prev, cur)

	cfg := pktsim.Config{
		Seed:       *seed,
		HorizonSec: *horizon,
		PacketBits: *packetBits,
		QueuePkts:  *queue,
		JitterFrac: *jitter,
		Spikes:     *spikes,
		Handovers:  *handovers,
	}
	if *burstDur > 0 {
		cfg.Burst = &pktsim.Burst{StartSec: *burstStart, DurSec: *burstDur, Factor: *burstFactor}
	}

	res, err := pktsim.Run(spec, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("solver=%s flows=%d nodes=%d links=%d horizon=%gs\n",
		al.Name(), len(cur.Problem.Flows), cur.Snap.NumNodes, len(cur.Snap.Links), *horizon)
	fmt.Printf("injected   %d%s\n", res.Injected, map[bool]string{true: "  (truncated by MaxPackets)", false: ""}[res.Truncated])
	fmt.Printf("delivered  %d  (%.1f%%)\n", res.Delivered, 100*(1-res.LossFrac()))
	fmt.Printf("dropped    %d  (queue %d, no-rule %d, link-down %d, loop %d)\n",
		res.Dropped(), res.DroppedQueue, res.DroppedNoRule, res.DroppedDown, res.DroppedLoop)
	fmt.Printf("queue high water  %d pkts\n", res.MaxQueuePkts)
	mean := res.MeanLatencySec() // in delivery order, before -out sorts the series
	if res.Delivered > 0 {
		fmt.Printf("latency    mean %.2f ms\n", mean*1e3)
		fmt.Println("latency CDF (delivered packets):")
		ps := []float64{10, 25, 50, 75, 90, 95, 99, 99.9, 100}
		for i, v := range res.LatencyPercentiles(ps...) {
			fmt.Printf("  p%-5g %8.2f ms\n", ps[i], v*1e3)
		}
	}

	if *out != "" {
		// Latencies sort ascending in the dump so the file is directly
		// plottable as a CDF.
		sort.Float64s(res.LatenciesSec)
		dump := struct {
			Solver       string
			Result       *pktsim.Result
			SortedLatSec []float64
			MeanLatSec   float64
		}{al.Name(), res, res.LatenciesSec, 0}
		if !math.IsNaN(mean) {
			dump.MeanLatSec = mean
		}
		dump.Result.LatenciesSec = nil // superseded by the sorted series
		b, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sate-pktsim:", err)
	os.Exit(1)
}
