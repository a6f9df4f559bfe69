package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"sate/internal/pktsim"
	"sate/internal/sim"
)

// sate pktsim runs the discrete-event packet engine (internal/pktsim,
// DESIGN.md §15) over one TE recompute cycle and prints the per-packet
// accounting: latency quantiles, queue high water, and drops by reason.
//
// It builds the scenario, solves the TE problem at -t with the chosen
// solver, and executes the allocation at packet granularity. With
// -update-at > 0 it also solves the problem -interval seconds earlier and
// replays the rule push: the network starts on the stale allocation and each
// satellite switches at -update-at plus its rule-distribution delay
// (Appendix D), so the printed loss includes the stale-rule window.
//
//	sate pktsim -solver ecmp-wf -t 700 -horizon 2
//	sate pktsim -solver lp -update-at 0.8 -burst-factor 3 -burst-start 0.5
//	sate pktsim -cons toy-8x10 -intensity 40 -spikes 3 -handovers 2 -out run.json
var pktsimCommand = command{
	name:    "pktsim",
	summary: "one TE cycle at packet granularity: latency CDF, queues, drops",
	spec: sim.Spec{Cons: "toy-5x6", Solver: "ecmp-wf", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 30, Seed: 1, MinElevDeg: 5,
		Users: 2000, UserClusters: 60, Gateways: 8, Relays: 30,
	}},
	keys:  []string{"cons", "mode", "intensity", "seed", "solver"},
	setup: pktsimSetup,
}

func pktsimSetup(fs *flag.FlagSet) func(sim.Spec) error {
	var (
		evalT    = fs.Float64("t", 700, "scenario instant of the evaluated allocation (s)")
		interval = fs.Float64("interval", 2, "recompute interval: the stale allocation is solved at t-interval (s)")

		horizon    = fs.Float64("horizon", 1, "injection horizon (s); in-flight packets drain past it")
		queue      = fs.Int("queue", 64, "per-directed-link FIFO capacity (packets)")
		packetBits = fs.Int("packet-bits", 12000, "packet size on the wire (bits)")
		jitter     = fs.Float64("jitter", 0.03, "per-hop jitter as a fraction of propagation delay")
		spikes     = fs.Int("spikes", 0, "seeded propagation-delay spikes")
		handovers  = fs.Int("handovers", 0, "seeded link-down handover windows")

		burstStart  = fs.Float64("burst-start", 0, "burst window start (s)")
		burstDur    = fs.Float64("burst-dur", 0, "burst window duration (s); 0 disables the burst")
		burstFactor = fs.Float64("burst-factor", 3, "burst rate multiplier")

		updateAt = fs.Float64("update-at", 0, "rule-push instant within the run (s); 0 disables the update window")
		out      = fs.String("out", "", "also write the full result (incl. per-packet latencies) as JSON")
	)
	return func(spec sim.Spec) error {
		al, err := spec.NewSolver()
		if err != nil {
			return err
		}
		scen, err := spec.Scenario()
		if err != nil {
			return err
		}

		ctx := context.Background()
		cur, err := scen.RunCycle(ctx, al, *evalT)
		if err != nil {
			return err
		}
		if len(cur.Problem.Flows) == 0 {
			return fmt.Errorf("no flows at t=%v (raise -intensity or -t)", *evalT)
		}
		var prev *sim.Cycle
		if *updateAt > 0 {
			if prev, err = scen.RunCycle(ctx, al, *evalT-*interval); err != nil {
				return err
			}
		}
		run := (&sim.PacketReplay{UpdateAtSec: *updateAt}).RunSpec(scen, prev, cur)

		cfg := pktsim.Config{
			Seed:       spec.Seed,
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

		res, err := pktsim.Run(run, cfg)
		if err != nil {
			return err
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

		if *out == "" {
			return nil
		}
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
			return err
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
		return nil
	}
}
