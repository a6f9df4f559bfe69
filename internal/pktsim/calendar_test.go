package pktsim

import (
	"fmt"
	"math"
	"testing"

	"sate/internal/par"
)

// checkLinks walks every partition's calendar buckets and every port FIFO
// and fails if a packet is linked into two lists (or twice into one), a
// bucket is out of (t, seq) order, an arrival waits in another partition's
// calendar, or a list's length disagrees with its counter — the invariant
// the intrusive layout rests on: one next link per packet suffices because a
// packet is in at most one list at a time.
func checkLinks(t *testing.T, e *engine) {
	t.Helper()
	seen := make([]bool, len(e.packets))
	visit := func(h int32, list string) {
		if seen[h] {
			t.Fatalf("packet %d linked twice (second time in %s)", h, list)
		}
		seen[h] = true
	}
	for pi := range e.parts {
		c := &e.parts[pi].cal
		pending := 0
		for b, h := range c.heads {
			for prev := nilPkt; h != nilPkt; prev, h = h, e.packets[h].next {
				visit(h, "a calendar bucket")
				pk := &e.packets[h]
				if int(c.vb(pk.t)&c.mask) != b {
					t.Fatalf("packet %d (t=%v) sits in bucket %d", h, pk.t, b)
				}
				if prev != nilPkt && !pktLess(&e.packets[prev], pk) {
					t.Fatalf("bucket %d out of order at packet %d", b, h)
				}
				if pk.kind == evArrive && int(e.partOf[pk.where]) != pi {
					t.Fatalf("arrival of packet %d at node %d waits in partition %d", h, pk.where, pi)
				}
				pending++
			}
		}
		if pending != c.n {
			t.Fatalf("partition %d's calendar lists hold %d events, counter says %d", pi, pending, c.n)
		}
	}
	for pi := range e.ports {
		pt := &e.ports[pi]
		h, last := pt.qhead, nilPkt
		for i := int32(0); i < pt.qn; i, h = i+1, e.packets[h].next {
			visit(h, "a port FIFO")
			last = h
		}
		if pt.qn > 0 && last != pt.qtail {
			t.Fatalf("port %d FIFO ends at packet %d, tail says %d", pi, last, pt.qtail)
		}
		if pt.qn > 0 && !pt.busy {
			t.Fatalf("port %d idle with %d packets queued", pi, pt.qn)
		}
	}
}

// conserved fails unless each injected packet is delivered, dropped,
// pending in a calendar, queued at a port, or departed in this window
// (recorded, its arrival not yet scheduled), and the partitions' held counts,
// which size their record shares, add up to the pending and queued packets.
func conserved(t *testing.T, e *engine, ev int) {
	t.Helper()
	var r Result
	pending, queued, departed, held := 0, 0, 0, 0
	for i := range e.parts {
		p := &e.parts[i]
		r.Merge(&p.res)
		pending += p.cal.n
		held += p.held
		for _, rc := range p.recs {
			if rc.op >= 0 {
				departed++
			}
		}
	}
	for pi := range e.ports {
		queued += int(e.ports[pi].qn)
	}
	if r.Delivered+r.Dropped()+pending+queued+departed != e.res.Injected {
		t.Fatalf("event %d: delivered %d + dropped %d + pending %d + queued %d + departed %d != injected %d",
			ev, r.Delivered, r.Dropped(), pending, queued, departed, e.res.Injected)
	}
	if held != pending+queued {
		t.Fatalf("event %d: partitions hold %d packets, %d pending + %d queued", ev, held, pending, queued)
	}
}

// TestConservationAtEveryEvent steps a run with every feature on, window by
// window and partition by partition as the pool would run them, and checks
// after every single event that each injected packet is delivered, dropped,
// pending, queued or departed in the window — and, on a stride (the walk is
// linear in the packet count), that the lists really hold them once each.
func TestConservationAtEveryEvent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers %d", workers), func(t *testing.T) {
			defer par.SetWorkers(workers)()
			spec, cfg := richSpec(t)
			cfg.HorizonSec = 0.08
			cfg.QueuePkts = 4
			cfg.Burst = &Burst{StartSec: 0.02, DurSec: 0.04, Factor: 6}
			spec.Update.AtSec = 0.03
			for i := range spec.Problem.LinkCap {
				spec.Problem.LinkCap[i] = 40 // under the burst's offered load
			}
			e, err := newEngine(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.parts) != workers {
				t.Fatalf("%d partitions at %d workers", len(e.parts), workers)
			}
			checkLinks(t, e)
			ev, windows := 0, 0
			for start := e.first(); start < math.Inf(1); start = e.merge() {
				e.open(start)
				for i := range e.parts {
					e.admit(&e.parts[i], int32(i))
				}
				checkLinks(t, e)
				for i := range e.parts {
					for p := &e.parts[i]; e.stepBefore(p); ev++ {
						conserved(t, e, ev)
						if ev%101 == 0 {
							checkLinks(t, e)
						}
					}
				}
				windows++
			}
			e.fold()
			checkLinks(t, e)
			accounting(t, e.res)
			if e.res.DroppedQueue == 0 || e.res.DroppedNoRule == 0 || e.res.Delivered == 0 {
				t.Fatalf("run exercised too little: delivered %d, queue drops %d, no-rule drops %d",
					e.res.Delivered, e.res.DroppedQueue, e.res.DroppedNoRule)
			}
			if workers > 1 && windows < 4 {
				t.Fatalf("only %d windows", windows)
			}
		})
	}
}

// TestEventLoopZeroAllocs pins the loop's allocation contract (DESIGN.md §8)
// at one and at two workers: draining a loaded engine allocates nothing —
// window records and arrivals are presized — and Run as a whole allocates a
// number of objects that depends on streams and nodes, not on packets.
func TestEventLoopZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers %d", workers), func(t *testing.T) {
			defer par.SetWorkers(workers)()
			spec, cfg := richSpec(t)
			engines := make([]*engine, 3) // AllocsPerRun(2, f) calls f three times
			for i := range engines {
				var err error
				if engines[i], err = newEngine(spec, cfg); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			if a := testing.AllocsPerRun(2, func() {
				engines[next].run()
				next++
			}); a != 0 {
				t.Fatalf("event loop allocated %v objects per run, want 0", a)
			}
			if engines[0].res.Delivered == 0 || len(engines[0].parts) != workers {
				t.Fatalf("the measured loop delivered %d packets over %d partitions",
					engines[0].res.Delivered, len(engines[0].parts))
			}

			runAllocs := func(horizon float64) (float64, int) {
				c := cfg
				c.HorizonSec = horizon
				c.Burst = nil
				injected := 0
				a := testing.AllocsPerRun(2, func() {
					res, err := Run(spec, c)
					if err != nil {
						t.Fatal(err)
					}
					injected = res.Injected
				})
				return a, injected
			}
			short, nShort := runAllocs(0.3)
			long, nLong := runAllocs(1.2)
			if nLong < 3*nShort {
				t.Fatalf("horizons inject %d and %d packets; the comparison needs them far apart", nShort, nLong)
			}
			t.Logf("Run allocs: %v for %d packets, %v for %d", short, nShort, long, nLong)
			if d := long - short; d < -8 || d > 8 {
				t.Fatalf("Run allocated %v objects for %d packets and %v for %d: allocation count scales with packets",
					short, nShort, long, nLong)
			}
		})
	}
}

// fuzzDeltas are the schedule-ahead distances FuzzCalendarOrder draws from,
// against a calendar of 8 buckets × 0.25 s (a 2 s lap): zero (an equal-time
// tie, decided by seq), sub-bucket steps, bucket and lap boundaries hit
// exactly, multi-lap jumps, a distance the scan could never walk, and +Inf
// (the clamped virtual bucket).
var fuzzDeltas = [16]float64{
	0, 0, 1e-9, 0.01, 0.1, 0.25, 0.26, 0.5, 1.99, 2, 2.01, 4, 7.3, 101.7, 1e9, math.Inf(1),
}

// FuzzCalendarOrder drives the calendar and the reference heap with the same
// interleaving of pushes (t = now + Δ, Δ >= 0) and pops; both must pop the
// identical (t, seq) sequence. Each byte is one step: the high bit pops, the
// low nibble otherwise picks Δ. The seed corpus is testdata/fuzz.
func FuzzCalendarOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := makeCalendar(8, 0.25)
		var pk []packet
		var ref eventHeap
		now := 0.0
		pop := func() {
			want := ref.pop()
			cal.peek(pk)
			h := cal.take(pk)
			if got := pk[h]; math.Float64bits(got.t) != math.Float64bits(want.t) || got.seq != want.seq {
				t.Fatalf("calendar popped (t=%v, seq=%d), heap popped (t=%v, seq=%d)", got.t, got.seq, want.t, want.seq)
			}
			now = want.t
		}
		for _, b := range data {
			if b&0x80 != 0 {
				if ref.len() > 0 {
					pop()
				}
				continue
			}
			seq := uint64(len(pk))
			ev := event{t: now + fuzzDeltas[b&0x0f], seq: seq}
			ref.push(ev)
			pk = append(pk, packet{t: ev.t, seq: seq})
			cal.push(pk, int32(seq))
		}
		for ref.len() > 0 {
			pop()
		}
		if cal.n != 0 {
			t.Fatalf("heap drained with %d events still in the calendar", cal.n)
		}
	})
}
