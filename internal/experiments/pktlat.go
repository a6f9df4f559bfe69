package experiments

import (
	"fmt"
	"math"

	"sate/internal/baselines"
	"sate/internal/pktsim"
	"sate/internal/sim"
	"sate/internal/topology"
)

func init() { register("pktlat", PktLatCDF) }

// pktLatPercents are the CDF points reported per scheme.
var pktLatPercents = []float64{10, 25, 50, 75, 90, 95, 99, 99.9, 100}

// PktLatCDF runs the discrete-event packet engine under a combined stress
// scenario — a 3× traffic burst overlapping a rule-update window with real
// per-satellite distribution delays — and reports the per-packet latency CDF
// of SaTE against the baselines (DESIGN.md §15). Flow-level satisfaction
// (fig4/fig10) cannot see the difference between a scheme that reconverges in
// one propagation delay and one that blackholes traffic for a second; packet
// latency quantiles and loss can.
func PktLatCDF(opt Options) (*Report, error) {
	sc := scales(opt)[0]
	mode := topology.CrossShellLasers

	scen := newScenario(sc, mode, 0, opt.Seed+91)
	model, _, err := trainSaTE(scen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}

	// Teal trains on the t=ciTrainStart topology (its models are tied to a
	// single topology, Sec. 5.1); at eval time unseen pairs get no score.
	tealScen := newScenario(sc, mode, 0, opt.Seed+91)
	p0, _, _, err := tealScen.ProblemAt(ciTrainStart)
	if err != nil {
		return nil, err
	}
	teal := trainedTeal(tealScen, p0)

	// The update window replays a real recompute: the allocation solved at
	// ciEvalStart stays installed while the one solved 2 s later distributes.
	prevT, curT := ciEvalStart, ciEvalStart+2
	pPrev, snapPrev, _, err := scen.ProblemAt(prevT)
	if err != nil {
		return nil, err
	}
	pCur, snap, _, err := scen.ProblemAt(curT)
	if err != nil {
		return nil, err
	}
	if len(pPrev.Flows) == 0 || len(pCur.Flows) == 0 {
		return nil, fmt.Errorf("pktlat: empty eval problems at t=%v/%v", prevT, curT)
	}

	cfg := pktsim.Config{
		Seed:       opt.Seed,
		HorizonSec: 2,
		JitterFrac: 0.05,
		Spikes:     2,
		Handovers:  1,
		// The burst overlaps the update instant: stale rules meet peak load.
		Burst:      &pktsim.Burst{StartSec: 0.5, DurSec: 1, Factor: 3},
		MaxPackets: 1 << 20,
	}
	// Rules are pushed from Houston with per-satellite ruledist delays.
	window := sim.PacketReplay{UpdateAtSec: 0.8}

	r := &Report{
		ID:    "pktlat",
		Title: "per-packet latency CDF under burst + rule-update window",
	}
	r.Header = []string{"scheme"}
	for _, p := range pktLatPercents {
		r.Header = append(r.Header, fmt.Sprintf("p%g", p))
	}
	r.Header = append(r.Header, "delivered", "loss")

	schemes := []sim.Allocator{model}
	if teal != nil {
		schemes = append(schemes, teal)
	} else {
		row := []string{"teal"}
		for range pktLatPercents {
			row = append(row, "OOM")
		}
		r.AddRow(append(row, "OOM", "OOM")...)
	}
	schemes = append(schemes, baselines.ECMPWF{}, &baselines.POP{K: 4, Seed: opt.Seed})
	for _, al := range schemes {
		prev := &sim.Cycle{TimeSec: prevT, Snap: snapPrev, Problem: pPrev}
		if err := prev.Solve(al); err != nil {
			return nil, fmt.Errorf("pktlat: %s prev solve: %w", al.Name(), err)
		}
		cur := &sim.Cycle{TimeSec: curT, Snap: snap, Problem: pCur}
		if err := cur.Solve(al); err != nil {
			return nil, fmt.Errorf("pktlat: %s cur solve: %w", al.Name(), err)
		}
		res, err := pktsim.Run(window.RunSpec(scen, prev, cur), cfg)
		if err != nil {
			return nil, fmt.Errorf("pktlat: %s engine run: %w", al.Name(), err)
		}
		if res.Truncated {
			return nil, fmt.Errorf("pktlat: %s run truncated at MaxPackets=%d; its quantiles would describe a clipped schedule",
				al.Name(), cfg.MaxPackets)
		}
		row := []string{al.Name()}
		for _, v := range res.LatencyPercentiles(pktLatPercents...) {
			if math.IsNaN(v) {
				row = append(row, "n/a")
			} else {
				row = append(row, fmt.Sprintf("%.2f ms", v*1e3))
			}
		}
		row = append(row, fmt.Sprintf("%d/%d", res.Delivered, res.Injected), pct(res.LossFrac()))
		r.AddRow(row...)
	}
	r.Note("burst ×%g over [%.1f s, %.1f s); rules pushed at %.1f s with per-satellite ruledist delays (Houston)",
		cfg.Burst.Factor, cfg.Burst.StartSec, cfg.Burst.StartSec+cfg.Burst.DurSec, window.UpdateAtSec)
	r.Note("columns are latency CDF points over delivered packets; loss counts queue, no-rule, link-down and loop drops")
	return r, nil
}
