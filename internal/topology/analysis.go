package topology

import "math/rand"

// THTResult summarises a topology-holding-time analysis (Sec. 2.3.1): how
// long the topology remains unchanged, measured over consecutive snapshots.
type THTResult struct {
	SampleIntervalSec float64
	HoldTimesSec      []float64 // one entry per maximal unchanged run
}

// MeasureTHT computes holding times from a series of consecutive snapshots
// sampled at a fixed interval. THT is 12.5k ms where k is the number of
// sampled intervals during which the topology remains unchanged; a run of m
// identical consecutive snapshots therefore contributes a holding time of
// m * interval.
func MeasureTHT(snaps []*Snapshot, intervalSec float64) THTResult {
	res := THTResult{SampleIntervalSec: intervalSec}
	if len(snaps) == 0 {
		return res
	}
	run := 1
	for i := 1; i < len(snaps); i++ {
		if snaps[i].SameTopology(snaps[i-1]) {
			run++
			continue
		}
		res.HoldTimesSec = append(res.HoldTimesSec, float64(run)*intervalSec)
		run = 1
	}
	res.HoldTimesSec = append(res.HoldTimesSec, float64(run)*intervalSec)
	return res
}

// Mean returns the average holding time in seconds (0 for no data).
func (r THTResult) Mean() float64 {
	if len(r.HoldTimesSec) == 0 {
		return 0
	}
	var s float64
	for _, h := range r.HoldTimesSec {
		s += h
	}
	return s / float64(len(r.HoldTimesSec))
}

// Max returns the maximum holding time in seconds.
func (r THTResult) Max() float64 {
	m := 0.0
	for _, h := range r.HoldTimesSec {
		if h > m {
			m = h
		}
	}
	return m
}

// LinkExclusion computes, for a TE interval spanning the given number of
// snapshot steps, the fraction of *changeable* links that must be excluded
// because they are not present in every snapshot of the interval
// (Sec. 2.3.2, Fig. 4 (c)). Changeable links are all links that are not
// intra-orbit (intra-orbit links rarely change and are not counted, matching
// the paper's "potentially changing ISLs").
func LinkExclusion(snaps []*Snapshot, steps int) float64 {
	if steps < 1 || steps > len(snaps) {
		steps = len(snaps)
	}
	if steps == 0 {
		return 0
	}
	// Union of changeable links over the window, and the subset present in
	// every snapshot.
	type stat struct {
		seen int
	}
	counts := make(map[uint64]*stat)
	for i := 0; i < steps; i++ {
		for _, l := range snaps[i].Links {
			if l.Kind == IntraOrbit {
				continue
			}
			k := l.Key()
			st := counts[k]
			if st == nil {
				st = &stat{}
				counts[k] = st
			}
			st.seen++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	excluded := 0
	for _, st := range counts {
		if st.seen < steps {
			excluded++
		}
	}
	return float64(excluded) / float64(len(counts))
}

// InjectFailures returns a copy of the snapshot with a random fraction of
// links removed (Appendix H.3). The input snapshot is not modified.
func InjectFailures(s *Snapshot, fraction float64, rng *rand.Rand) *Snapshot {
	out := &Snapshot{
		TimeSec:  s.TimeSec,
		NumSats:  s.NumSats,
		NumNodes: s.NumNodes,
		Pos:      s.Pos,
	}
	nFail := int(float64(len(s.Links)) * fraction)
	if nFail <= 0 {
		out.Links = append([]Link(nil), s.Links...)
		out.Finalize()
		return out
	}
	perm := rng.Perm(len(s.Links))
	failed := make(map[int]struct{}, nFail)
	for _, i := range perm[:nFail] {
		failed[i] = struct{}{}
	}
	out.Links = make([]Link, 0, len(s.Links)-nFail)
	for i, l := range s.Links {
		if _, ok := failed[i]; !ok {
			out.Links = append(out.Links, l)
		}
	}
	out.Finalize()
	return out
}

// ChurnStats summarises link changes between consecutive snapshots.
type ChurnStats struct {
	Steps        int
	TotalAdded   int
	TotalRemoved int
	ChangedSteps int // steps at which the topology differed from the previous
}

// MeasureChurn computes link churn over a snapshot series.
func MeasureChurn(snaps []*Snapshot) ChurnStats {
	var cs ChurnStats
	for i := 1; i < len(snaps); i++ {
		cs.Steps++
		if snaps[i].SameTopology(snaps[i-1]) {
			continue
		}
		added, removed := snaps[i-1].Diff(snaps[i])
		cs.TotalAdded += len(added)
		cs.TotalRemoved += len(removed)
		cs.ChangedSteps++
	}
	return cs
}
