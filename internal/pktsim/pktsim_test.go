package pktsim

import (
	"math"
	"reflect"
	"testing"

	"sate/internal/obs"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
)

// twoSatSpec is the smallest possible network: two satellites 1000 km apart,
// one link of capMbps, one flow allocated rateMbps onto its single path.
func twoSatSpec(t *testing.T, capMbps, rateMbps float64) *RunSpec {
	t.Helper()
	snap := &topology.Snapshot{
		NumSats:  2,
		NumNodes: 2,
		Pos:      []orbit.Vec3{{X: 7000}, {X: 8000}},
		Links:    []topology.Link{topology.MakeLink(0, 1, topology.IntraOrbit)},
	}
	snap.Finalize()
	p := &te.Problem{
		NumNodes: 2,
		Links:    snap.Links,
		LinkCap:  []float64{capMbps},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 1, DemandMbps: rateMbps,
			Paths: []paths.Path{{Nodes: []topology.NodeID{0, 1}}},
		}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := te.NewAllocation(p)
	a.X[0][0] = rateMbps
	return &RunSpec{Snap: snap, Problem: p, Alloc: a}
}

// accounting asserts the conservation identity every run must satisfy.
func accounting(t *testing.T, r *Result) {
	t.Helper()
	if got := r.Delivered + r.Dropped(); got != r.Injected {
		t.Fatalf("accounting: delivered %d + dropped %d != injected %d",
			r.Delivered, r.Dropped(), r.Injected)
	}
	if len(r.LatenciesSec) != r.Delivered {
		t.Fatalf("latency series has %d entries for %d deliveries", len(r.LatenciesSec), r.Delivered)
	}
}

func TestUncongestedLatencyIsSerializationPlusPropagation(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	reg := obs.NewRegistry()
	res, err := Run(spec, Config{Seed: 1, HorizonSec: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	// 10 Mbps of 12000-bit packets over 1 s ≈ 833 packets.
	if res.Injected < 700 || res.Injected > 900 {
		t.Fatalf("injected %d packets, want ~833", res.Injected)
	}
	if res.Dropped() != 0 {
		t.Fatalf("uncongested run dropped %d packets", res.Dropped())
	}
	want := 12000/(100*1e6) + orbit.PropagationDelaySec(spec.Snap.Pos[0], spec.Snap.Pos[1])
	for i, lat := range res.LatenciesSec {
		if math.Abs(lat-want) > 1e-9 {
			t.Fatalf("packet %d latency %.9f s, want %.9f (serialization + light time)", i, lat, want)
		}
	}
	if res.MaxQueuePkts != 1 {
		t.Fatalf("uncongested high-water occupancy %d, want 1 (service only)", res.MaxQueuePkts)
	}
	if got := reg.Histogram("pktsim_packet_latency_seconds", LatencyBucketsSec).Count(); got != uint64(res.Delivered) {
		t.Fatalf("latency histogram saw %d observations for %d deliveries", got, res.Delivered)
	}
}

func TestSaturatedPortFillsQueueThenDrops(t *testing.T) {
	// 10 Mbps offered onto a 1 Mbps port: 10× oversubscribed, so the FIFO
	// fills to capacity and everything beyond it drops.
	spec := twoSatSpec(t, 1, 10)
	res, err := Run(spec, Config{Seed: 1, HorizonSec: 1, QueuePkts: 8})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	if res.DroppedQueue == 0 {
		t.Fatal("10x oversubscription produced no queue drops")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered despite a working link")
	}
	// Queued packets see up to queue-length × serialization of extra delay.
	ser := 12000 / (1 * 1e6)
	if p99 := res.LatencyPercentiles(99)[0]; p99 < 5*ser {
		t.Fatalf("p99 %.6f s shows no queueing delay (ser %.6f)", p99, ser)
	}
	if res.MaxQueuePkts != 9 { // 8 queued + 1 in service
		t.Fatalf("high-water occupancy %d, want 9", res.MaxQueuePkts)
	}
}

// diamondSpec builds 0-1-3 / 0-2-3 with a flow 0→3 and two candidate paths,
// returning specs for "previous cycle on the upper path" and "current cycle
// on the lower path".
func diamondSpec(t *testing.T) (*te.Problem, *topology.Snapshot) {
	t.Helper()
	snap := &topology.Snapshot{
		NumSats:  4,
		NumNodes: 4,
		Pos: []orbit.Vec3{
			{X: 7000}, {X: 7000, Y: 1000}, {X: 7000, Y: -1000}, {X: 7000, Y: 0, Z: 2000},
		},
		Links: []topology.Link{
			topology.MakeLink(0, 1, topology.IntraOrbit),
			topology.MakeLink(1, 3, topology.IntraOrbit),
			topology.MakeLink(0, 2, topology.IntraOrbit),
			topology.MakeLink(2, 3, topology.IntraOrbit),
		},
	}
	snap.Finalize()
	p := &te.Problem{
		NumNodes: 4,
		Links:    snap.Links,
		LinkCap:  []float64{100, 100, 100, 100},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: 10,
			Paths: []paths.Path{
				{Nodes: []topology.NodeID{0, 1, 3}},
				{Nodes: []topology.NodeID{0, 2, 3}},
			},
		}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p, snap
}

func TestRuleUpdateWindowDropsStalePackets(t *testing.T) {
	p, snap := diamondSpec(t)
	prev := te.NewAllocation(p)
	prev.X[0][0] = 10 // previous cycle: upper path 0-1-3
	cur := te.NewAllocation(p)
	cur.X[0][1] = 10 // new cycle: lower path 0-2-3
	spec := &RunSpec{
		Snap: snap, Problem: p, Alloc: cur,
		Update: &RuleUpdate{
			PrevProblem: p, PrevAlloc: prev,
			AtSec: 0.5,
			// Node 2 receives its rules 0.3 s late: every lower-path packet
			// injected in [0.5, ~0.8) reaches a node that cannot forward it.
			DelaysSec: []float64{0, 0, 0.3, 0},
		},
	}
	res, err := Run(spec, Config{Seed: 3, HorizonSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	if res.DroppedNoRule == 0 {
		t.Fatal("no stale-rule loss despite a 0.3 s rule-arrival lag at a mid-path node")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered outside the update window")
	}
	// ~0.3 s of a 10 Mbps stream is ~250 packets; drops must be of that
	// order, not an artifact of one boundary packet.
	if res.DroppedNoRule < 100 {
		t.Fatalf("only %d stale-rule drops across a 0.3 s window", res.DroppedNoRule)
	}

	// Control: with instant distribution the only stale packets are the few
	// already in flight at the switch instant.
	spec.Update.DelaysSec = []float64{0, 0, 0, 0}
	ctl, err := Run(spec, Config{Seed: 3, HorizonSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, ctl)
	if ctl.DroppedNoRule >= res.DroppedNoRule {
		t.Fatalf("instant distribution dropped %d >= delayed distribution's %d",
			ctl.DroppedNoRule, res.DroppedNoRule)
	}
}

func TestUnreachableSatelliteNeverSwitches(t *testing.T) {
	p, snap := diamondSpec(t)
	prev := te.NewAllocation(p)
	prev.X[0][0] = 10
	cur := te.NewAllocation(p)
	cur.X[0][1] = 10
	spec := &RunSpec{
		Snap: snap, Problem: p, Alloc: cur,
		Update: &RuleUpdate{
			PrevProblem: p, PrevAlloc: prev,
			AtSec: 0.2,
			// Node 2 is outside the rule-distribution domain (+Inf delay, as
			// ruledist reports for unreachable satellites): it never loads
			// the new rules, so the whole new-generation stream is lost.
			DelaysSec: []float64{0, 0, math.Inf(1), 0},
		},
	}
	res, err := Run(spec, Config{Seed: 4, HorizonSec: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	if res.DroppedNoRule < res.Injected/3 {
		t.Fatalf("only %d/%d dropped; the 0.4 s new-generation stream should be lost entirely",
			res.DroppedNoRule, res.Injected)
	}
}

func TestHandoverWindowDropsPackets(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	res, err := Run(spec, Config{Seed: 5, HorizonSec: 1, Handovers: 1})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	// The window covers handoverDurSec of a ~833-packet second.
	if want := handoverDurSec * 833 / 4; float64(res.DroppedDown) < want {
		t.Fatalf("only %d handover drops across a %v s window, want at least %.0f", res.DroppedDown, handoverDurSec, want)
	}
}

func TestDelaySpikeStretchesTailLatency(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	base, err := Run(spec, Config{Seed: 6, HorizonSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	spiked, err := Run(spec, Config{Seed: 6, HorizonSec: 1, Spikes: 1})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, spiked)
	if got, ref := spiked.LatencyPercentiles(100)[0], base.LatencyPercentiles(100)[0]; got < ref+0.8*spikeExtraSec {
		t.Fatalf("spike run max latency %.4f s, baseline %.4f s: the %v s spike left no trace", got, ref, spikeExtraSec)
	}
}

func TestBurstMultipliesInjectionRate(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	plain, err := Run(spec, Config{Seed: 7, HorizonSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := Run(spec, Config{Seed: 7, HorizonSec: 1, Burst: &Burst{StartSec: 0.3, DurSec: 0.4, Factor: 3}})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, burst)
	// 0.4 s at 3× adds ~0.8 s worth of extra packets.
	lo := plain.Injected + plain.Injected/2
	if burst.Injected < lo {
		t.Fatalf("burst injected %d, plain %d: want at least %d", burst.Injected, plain.Injected, lo)
	}
}

func TestJitterSpreadsLatency(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	res, err := Run(spec, Config{Seed: 8, HorizonSec: 1, JitterFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	floor := 12000/(100*1e6) + orbit.PropagationDelaySec(spec.Snap.Pos[0], spec.Snap.Pos[1])
	ends := res.LatencyPercentiles(0, 100)
	min, max := ends[0], ends[1]
	if min < floor-1e-12 {
		t.Fatalf("jittered latency %.9f below the physical floor %.9f", min, floor)
	}
	if max-min < 1e-6 {
		t.Fatal("20% jitter produced a degenerate latency distribution")
	}
}

func TestMaxPacketsTruncates(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	res, err := Run(spec, Config{Seed: 9, HorizonSec: 1, MaxPackets: 10})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	if !res.Truncated {
		t.Fatal("a 10-packet budget over an ~833-packet schedule did not truncate")
	}
	if res.Injected != 10 {
		t.Fatalf("injected %d packets under a 10-packet budget an ~833-packet schedule overruns", res.Injected)
	}
}

// TestMaxPacketsBudgetsTheTotal pins the budget to the whole run: streams of
// unequal rates are cut only when their sum overruns MaxPackets, never
// because one of them exceeds an even share of it.
func TestMaxPacketsBudgetsTheTotal(t *testing.T) {
	p, snap := diamondSpec(t)
	a := te.NewAllocation(p)
	a.X[0][0], a.X[0][1] = 10, 1 // two streams, 10:1
	spec := &RunSpec{Snap: snap, Problem: p, Alloc: a}
	full, err := Run(spec, Config{Seed: 9, HorizonSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.Injected < 800 {
		t.Fatalf("reference run: %+v", full)
	}

	// Budget above the total (but under twice the heavy stream): untouched.
	res, err := Run(spec, Config{Seed: 9, HorizonSec: 1, MaxPackets: full.Injected + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || !reflect.DeepEqual(res, full) {
		t.Fatalf("a %d-packet budget over a %d-packet schedule cut it: injected %d, truncated %v",
			full.Injected+1, full.Injected, res.Injected, res.Truncated)
	}

	// Budget below the total: exactly the budget is injected, the light
	// stream (84 packets, under the common cap) whole.
	res, err = Run(spec, Config{Seed: 9, HorizonSec: 1, MaxPackets: 500})
	if err != nil {
		t.Fatal(err)
	}
	accounting(t, res)
	if !res.Truncated || res.Injected != 500 {
		t.Fatalf("500-packet budget: injected %d, truncated %v", res.Injected, res.Truncated)
	}

	// More streams than budget: still never over it.
	res, err = Run(spec, Config{Seed: 9, HorizonSec: 1, MaxPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Injected != 1 {
		t.Fatalf("1-packet budget over two streams: injected %d, truncated %v", res.Injected, res.Truncated)
	}
}

func TestRunValidation(t *testing.T) {
	spec := twoSatSpec(t, 100, 10)
	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"nil snapshot", func(s *RunSpec) { s.Snap = nil }},
		{"nil alloc", func(s *RunSpec) { s.Alloc = nil }},
		{"flow mismatch", func(s *RunSpec) { s.Alloc = &te.Allocation{X: [][]float64{{1}, {1}}} }},
		{"update without prev", func(s *RunSpec) { s.Update = &RuleUpdate{AtSec: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *spec
			tc.mutate(&bad)
			if _, err := Run(&bad, Config{HorizonSec: 0.1}); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
	// Zero-capacity links cannot serialize: rejected, not Inf-delayed.
	badCap := twoSatSpec(t, 100, 10)
	badCap.Problem.LinkCap[0] = 0
	if _, err := Run(badCap, Config{HorizonSec: 0.1}); err == nil {
		t.Fatal("zero-capacity link accepted")
	}
	// A zero allocation is a valid, empty run, not an error.
	idle := twoSatSpec(t, 100, 10)
	idle.Alloc.X[0][0] = 0
	if res, err := Run(idle, Config{HorizonSec: 0.1, Spikes: 1}); err != nil || res.Injected != 0 || res.Truncated {
		t.Fatalf("zero allocation: %+v, %v", res, err)
	}
}

func TestResultMergeAndPercentiles(t *testing.T) {
	var agg Result
	agg.Merge(&Result{Injected: 10, Delivered: 8, DroppedQueue: 2, MaxQueuePkts: 3, LatenciesSec: []float64{0.01, 0.02}})
	agg.Merge(&Result{Injected: 5, Delivered: 5, MaxQueuePkts: 7, Truncated: true, LatenciesSec: []float64{0.03}})
	if agg.Injected != 15 || agg.Delivered != 13 || agg.Dropped() != 2 || agg.MaxQueuePkts != 7 || !agg.Truncated {
		t.Fatalf("merged: %+v", agg)
	}
	// Percentiles come back in the order asked, not sorted.
	if got := agg.LatencyPercentiles(100, 1, 50); math.Abs(got[0]-0.03) > 1e-15 || math.Abs(got[1]-0.01) > 1e-15 || math.Abs(got[2]-0.02) > 1e-15 {
		t.Fatalf("p100, p1, p50 = %v", got)
	}
	if !reflect.DeepEqual(agg.LatenciesSec, []float64{0.01, 0.02, 0.03}) {
		t.Fatalf("percentiles reordered the series: %v", agg.LatenciesSec)
	}
	var empty Result
	if got := empty.LatencyPercentiles(50, 99); len(got) != 2 || !math.IsNaN(got[0]) || !math.IsNaN(got[1]) || !math.IsNaN(empty.MeanLatencySec()) {
		t.Fatal("empty result must report NaN latency, not zero")
	}
	if empty.LossFrac() > 0 {
		t.Fatal("empty result has loss")
	}
}
