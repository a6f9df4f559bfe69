package ruledist

import (
	"container/heap"
	"math"

	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/rules"
	"sate/internal/te"
	"sate/internal/topology"
)

// HoustonSite is the control-center location assumed in Appendix D.
var HoustonSite = groundnet.Site{LatDeg: 29.76, LonDeg: -95.37}

// RuleDistributionDelays computes, for every satellite, the propagation delay
// of traffic rules from the control center (Appendix D): the control center
// reaches directly visible satellites over a direct link and all others over
// shortest light-time ISL paths. Returns per-satellite delays in seconds
// (math.Inf for unreachable satellites).
func RuleDistributionDelays(snap *topology.Snapshot, center groundnet.Site, minElevRad float64) []float64 {
	n := snap.NumNodes
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	cpos := center.ECEF()

	pq := &delayHeap{}
	// Seed: satellites directly visible from the control center.
	for id := 0; id < snap.NumSats; id++ {
		if orbit.ElevationAngle(cpos, snap.Pos[id]) >= minElevRad {
			d := orbit.PropagationDelaySec(cpos, snap.Pos[id])
			if d < dist[id] {
				dist[id] = d
				heap.Push(pq, delayEntry{node: topology.NodeID(id), delay: d})
			}
		}
	}
	// Dijkstra over ISLs with light-time weights. Relaxation is restricted to
	// satellite nodes: Appendix D distributes rules over ISL paths only, so a
	// rule push must never shortcut through a ground relay's bent-pipe links
	// (in bent-pipe mode the adjacency also contains satellite–ground edges,
	// and a gateway sitting between two satellite clusters would otherwise
	// splice them into one artificially fast rule-distribution domain).
	adj := snap.Adjacency()
	sats := topology.NodeID(snap.NumSats)
	for pq.Len() > 0 {
		e := heap.Pop(pq).(delayEntry)
		if e.delay > dist[e.node] {
			continue
		}
		for _, nb := range adj[e.node] {
			if nb >= sats {
				continue // ground relay: not part of the rule-distribution ISL mesh
			}
			d := e.delay + orbit.PropagationDelaySec(snap.Pos[e.node], snap.Pos[nb])
			if d < dist[nb] {
				dist[nb] = d
				heap.Push(pq, delayEntry{node: nb, delay: d})
			}
		}
	}
	return dist[:snap.NumSats]
}

type delayEntry struct {
	node  topology.NodeID
	delay float64
}

type delayHeap []delayEntry

func (h delayHeap) Len() int            { return len(h) }
func (h delayHeap) Less(i, j int) bool  { return h[i].delay < h[j].delay }
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(delayEntry)) }
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// DelayStats summarises a delay distribution.
type DelayStats struct {
	MinSec, MaxSec, MeanSec float64
	Reachable               int
}

// SummarizeDelays computes min/max/mean over finite delays.
func SummarizeDelays(delays []float64) DelayStats {
	st := DelayStats{MinSec: math.Inf(1)}
	var sum float64
	for _, d := range delays {
		if math.IsInf(d, 1) {
			continue
		}
		st.Reachable++
		sum += d
		if d < st.MinSec {
			st.MinSec = d
		}
		if d > st.MaxSec {
			st.MaxSec = d
		}
	}
	if st.Reachable > 0 {
		st.MeanSec = sum / float64(st.Reachable)
	}
	return st
}

// RuleOverheadFraction estimates the control-message overhead of distributing
// the compiled rules of problem p, as a fraction of one TE interval's total
// ISL capacity (Appendix D argues O(mk ln n) rules vs O(n) links keeps this
// negligible). bytesPerRule is the encoded rule size (e.g. 64 bytes);
// intervalSec is the TE workflow period.
func RuleOverheadFraction(p *te.Problem, rs *rules.RuleSet, bytesPerRule int, intervalSec float64) float64 {
	var capMbps float64
	for _, c := range p.LinkCap {
		capMbps += c
	}
	if capMbps <= 0 || intervalSec <= 0 {
		return 0
	}
	bits := float64(rs.NumRules()*bytesPerRule) * 8
	totalBits := capMbps * 1e6 * intervalSec
	return bits / totalBits
}
