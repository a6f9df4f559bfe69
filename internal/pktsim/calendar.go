package pktsim

import (
	"math"
	"math/bits"
)

// Event kinds. An arrive event delivers a packet to a node (injection is an
// arrival at the stream's source); a depart event completes one packet's
// serialization on a directed port.
const (
	evArrive = iota
	evDepart
)

// nilPkt terminates every list threaded through packet.next.
const nilPkt = int32(-1)

// calendar is the pending-event set: a calendar queue whose nodes are the
// packets themselves (a packet has at most one pending event, so it carries
// the event's t/seq/kind/where and the list link). Virtual bucket
// vb(t) = int64(t·invW) is monotone in t, real bucket vb&mask holds every
// lap's events of that residue as one list sorted by (t, seq), and peek
// serves virtual buckets in ascending order — so events leave in exactly
// (t, seq) order, the order a binary heap under the same comparison yields.
type calendar struct {
	heads []int32 // per real bucket: first packet of its sorted list, or nilPkt
	mask  int64
	invW  float64
	cur   int64 // virtual bucket being served; every pending event has vb >= cur
	n     int   // pending events
}

// maxVB clamps the virtual bucket of events too far out (or at +Inf) for the
// float→int64 conversion to be defined; the clamp keeps vb monotone.
const maxVB = int64(1) << 62

// newCalendar sizes the queue for n injections spread over horizonSec: a
// power of two of buckets, at least four per injection, whose lap spans the
// horizon — so the injection schedule never wraps and the in-flight events
// bunched just ahead of the clock still find short lists. Run time is flat
// around that choice (DESIGN.md §15).
func newCalendar(n int, horizonSec float64) calendar {
	nb := 1 << bits.Len(uint(4*max(n, 4)-1))
	return makeCalendar(nb, horizonSec/float64(nb))
}

// makeCalendar builds a queue of nb (a power of two) buckets of widthSec.
func makeCalendar(nb int, widthSec float64) calendar {
	c := calendar{heads: make([]int32, nb), mask: int64(nb - 1), invW: 1 / widthSec}
	for i := range c.heads {
		c.heads[i] = nilPkt
	}
	return c
}

func (c *calendar) vb(t float64) int64 {
	x := t * c.invW
	if x >= float64(maxVB) {
		return maxVB
	}
	return int64(x)
}

// pktLess orders events by (time, sequence). Written as two strict
// comparisons so equal times fall through to the sequence tie-break without
// a float equality test.
func pktLess(a, b *packet) bool {
	if a.t < b.t {
		return true
	}
	if b.t < a.t {
		return false
	}
	return a.seq < b.seq
}

// push schedules packet h's event (its t, seq, kind and where are set by the
// caller; t must not precede the last popped event's).
func (c *calendar) push(pk []packet, h int32) {
	p := &pk[h]
	link := &c.heads[c.vb(p.t)&c.mask]
	for *link != nilPkt && pktLess(&pk[*link], p) {
		link = &pk[*link].next
	}
	p.next = *link
	*link = h
	c.n++
}

// peek returns the earliest pending event's instant, +Inf when none is
// pending, and moves the scan to that event's virtual bucket. A bucket whose
// head belongs to a later lap holds nothing for this one (the head is the
// bucket's earliest), so the scan steps on; after a whole lap of such steps
// it jumps straight to the earliest head instead of spinning through the
// laps in between.
func (c *calendar) peek(pk []packet) float64 {
	if c.n == 0 {
		return math.Inf(1)
	}
	for lap := c.cur + c.mask; ; c.cur++ {
		if c.cur > lap {
			c.cur = c.earliestVB(pk)
			lap = c.cur + c.mask
		}
		if h := c.heads[c.cur&c.mask]; h != nilPkt && c.vb(pk[h].t) == c.cur {
			return pk[h].t
		}
	}
}

// take removes and returns the event peek just found.
func (c *calendar) take(pk []packet) int32 {
	link := &c.heads[c.cur&c.mask]
	h := *link
	*link = pk[h].next
	c.n--
	return h
}

// rewind moves the scan back to t's virtual bucket if it has passed it, so
// events may be pushed at t or later again. Every pending event is still at
// or after the scan, so the pop order does not change.
func (c *calendar) rewind(t float64) {
	if v := c.vb(t); c.cur > v {
		c.cur = v
	}
}

// earliestVB is the virtual bucket of the earliest pending event: the
// minimum over bucket heads, each of which is its list's minimum.
func (c *calendar) earliestVB(pk []packet) int64 {
	best := nilPkt
	for _, h := range c.heads {
		if h != nilPkt && (best == nilPkt || pktLess(&pk[h], &pk[best])) {
			best = h
		}
	}
	return c.vb(pk[best].t)
}
