package pktsim_test

import (
	"context"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/obs"
	"sate/internal/pktsim"
	"sate/internal/sim"
	"sate/internal/topology"
)

// iridiumRun builds the input of one dataplane-66 benchmark cycle: Iridium
// at λ = 8 flows/s, ECMP-WF allocations solved at t = 399 s and t = 400 s,
// and the update window between them (rules pushed from Houston half-way
// through a 0.5 s horizon) under that workload's burst, jitter, spikes and
// handover.
func iridiumRun(tb testing.TB) (*pktsim.RunSpec, pktsim.Config) {
	tb.Helper()
	scen := sim.NewScenario(constellation.Iridium(), sim.ScenarioConfig{
		Mode: topology.CrossShellLasers, Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	})
	ctx := context.Background()
	prev, err := scen.RunCycle(ctx, baselines.ECMPWF{}, 399)
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := scen.RunCycle(ctx, baselines.ECMPWF{}, 400)
	if err != nil {
		tb.Fatal(err)
	}
	const horizon = 0.5
	spec := (&sim.PacketReplay{UpdateAtSec: 0.5 * horizon}).RunSpec(scen, prev, cur)
	cfg := pktsim.Config{
		Seed: 1, HorizonSec: horizon, JitterFrac: 0.03, Spikes: 2, Handovers: 1,
		Burst:      &pktsim.Burst{StartSec: 0.2 * horizon, DurSec: 0.4 * horizon, Factor: 3},
		MaxPackets: 1 << 28,
	}
	return spec, cfg
}

// BenchmarkRunIridium times pktsim.Run on a dataplane-66 cycle's input and
// reports ns per injected packet and executed events per second — the
// engine's layer meter. Run it at -cpu 1,2: the event loop splits into one
// node partition per worker.
func BenchmarkRunIridium(b *testing.B) {
	spec, cfg := iridiumRun(b)
	// Every accepted enqueue is one departure and one arrival; every
	// injection is one more arrival. A registry counts the enqueues once.
	counted := cfg
	counted.Registry = obs.NewRegistry()
	res, err := pktsim.Run(spec, counted)
	if err != nil {
		b.Fatal(err)
	}
	if res.Truncated || res.Delivered == 0 {
		b.Fatalf("degenerate run: %+v", res)
	}
	enqueued := counted.Registry.Histogram("pktsim_queue_depth_pkts", pktsim.QueueDepthBuckets).Count()
	events := float64(res.Injected) + 2*float64(enqueued)

	b.ResetTimer()
	for range b.N {
		if _, err := pktsim.Run(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(sec*1e9/float64(res.Injected), "ns/pkt")
	b.ReportMetric(events/sec, "events/s")
}
