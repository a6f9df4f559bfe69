package pktsim

import (
	"fmt"

	"sate/internal/orbit"
	"sate/internal/topology"
)

// port is one direction of one link: a finite-rate serializer behind a
// finite FIFO queue. Propagation delay is the light time between the
// endpoints' snapshot positions; rate comes from the TE problem's link
// capacity, so the engine serializes at exactly the capacity the solver
// allocated against. The FIFO is a list threaded through packet.next (a
// queued packet has no pending event, so the link is free), bounded by
// Config.QueuePkts.
type port struct {
	link    int32   // undirected schedule index (spikes/handovers key)
	to      int32   // arrival node of a completed departure
	serSec  float64 // serialization time of one Config.PacketBits packet
	propSec float64 // light-time propagation delay

	busy         bool
	qhead, qtail int32 // first and last queued packet; valid while qn > 0
	qn           int32
}

func (pt *port) qpush(pk []packet, h int32) {
	pk[h].next = nilPkt
	if pt.qn == 0 {
		pt.qhead = h
	} else {
		pk[pt.qtail].next = h
	}
	pt.qtail = h
	pt.qn++
}

func (pt *port) qpop(pk []packet) int32 {
	h := pt.qhead
	pt.qhead = pk[h].next
	pt.qn--
	return h
}

// portKey addresses a directed edge.
func portKey(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// buildPorts creates two directed ports per link of the problem (and, for a
// rule-update run, any previous-cycle links that have since disappeared —
// old-generation packets must still find their port to be accounted as
// queued or dropped rather than vanishing). Each undirected link gets one
// schedule index, shared by its two ports, which is what seeded spike and
// handover windows key on. Returns the ports and the directed-edge index.
func buildPorts(spec *RunSpec, packetBits int) ([]port, map[uint64]int32, error) {
	ports := make([]port, 0, 2*len(spec.Problem.Links))
	idx := make(map[uint64]int32, 2*len(spec.Problem.Links))
	linkSeq := int32(0)
	add := func(links []topology.Link, caps []float64) error {
		for li, l := range links {
			if _, ok := idx[portKey(int32(l.A), int32(l.B))]; ok {
				continue // already present (shared between generations)
			}
			if caps[li] <= 0 {
				return fmt.Errorf("pktsim: link %d-%d has capacity %v Mbps", l.A, l.B, caps[li])
			}
			ser := float64(packetBits) / (caps[li] * 1e6)
			prop := orbit.PropagationDelaySec(spec.Snap.Pos[l.A], spec.Snap.Pos[l.B])
			for _, dir := range [2][2]int32{{int32(l.A), int32(l.B)}, {int32(l.B), int32(l.A)}} {
				idx[portKey(dir[0], dir[1])] = int32(len(ports))
				ports = append(ports, port{
					link:    linkSeq,
					to:      dir[1],
					serSec:  ser,
					propSec: prop,
				})
			}
			linkSeq++
		}
		return nil
	}
	if err := add(spec.Problem.Links, spec.Problem.LinkCap); err != nil {
		return nil, nil, err
	}
	if spec.Update != nil {
		// Previous-generation links reuse their own capacities; their
		// schedule indices continue past the current links'.
		if err := add(spec.Update.PrevProblem.Links, spec.Update.PrevProblem.LinkCap); err != nil {
			return nil, nil, err
		}
	}
	return ports, idx, nil
}
