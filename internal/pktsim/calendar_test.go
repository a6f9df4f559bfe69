package pktsim

import (
	"math"
	"testing"

	"sate/internal/par"
)

// checkLinks walks every calendar bucket and every port FIFO and fails if a
// packet is linked into two lists (or twice into one), a bucket is out of
// (t, seq) order, or a list's length disagrees with its counter — the
// invariant the intrusive layout rests on: one next link per packet suffices
// because a packet is in at most one list at a time.
func checkLinks(t *testing.T, e *engine) {
	t.Helper()
	seen := make([]bool, len(e.packets))
	visit := func(h int32, list string) {
		if seen[h] {
			t.Fatalf("packet %d linked twice (second time in %s)", h, list)
		}
		seen[h] = true
	}
	pending := 0
	for b, h := range e.cal.heads {
		for prev := nilPkt; h != nilPkt; prev, h = h, e.packets[h].next {
			visit(h, "a calendar bucket")
			if int(e.cal.vb(e.packets[h].t)&e.cal.mask) != b {
				t.Fatalf("packet %d (t=%v) sits in bucket %d", h, e.packets[h].t, b)
			}
			if prev != nilPkt && !pktLess(&e.packets[prev], &e.packets[h]) {
				t.Fatalf("bucket %d out of order at packet %d", b, h)
			}
			pending++
		}
	}
	if pending != e.cal.n {
		t.Fatalf("calendar lists hold %d events, counter says %d", pending, e.cal.n)
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

// TestConservationAtEveryEvent steps a run with every feature on and checks,
// after every single event, that each injected packet is delivered, dropped,
// pending in the calendar or queued at a port — and, on a stride (the walk
// is linear in the packet count), that the lists really hold them once each.
func TestConservationAtEveryEvent(t *testing.T) {
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
	checkLinks(t, e)
	for ev := 0; e.cal.n > 0; ev++ {
		e.step()
		queued := 0
		for pi := range e.ports {
			queued += int(e.ports[pi].qn)
		}
		r := e.res
		if r.Delivered+r.Dropped()+e.cal.n+queued != r.Injected {
			t.Fatalf("event %d: delivered %d + dropped %d + pending %d + queued %d != injected %d",
				ev, r.Delivered, r.Dropped(), e.cal.n, queued, r.Injected)
		}
		if ev%101 == 0 {
			checkLinks(t, e)
		}
	}
	checkLinks(t, e)
	accounting(t, e.res)
	if e.res.DroppedQueue == 0 || e.res.DroppedNoRule == 0 || e.res.Delivered == 0 {
		t.Fatalf("run exercised too little: delivered %d, queue drops %d, no-rule drops %d",
			e.res.Delivered, e.res.DroppedQueue, e.res.DroppedNoRule)
	}
}

// TestEventLoopZeroAllocs pins the loop's allocation contract (DESIGN.md §8):
// draining a loaded engine allocates nothing, and Run as a whole allocates a
// number of objects that depends on streams and nodes, not on packets.
func TestEventLoopZeroAllocs(t *testing.T) {
	defer par.SetWorkers(1)()
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
	if engines[0].res.Delivered == 0 {
		t.Fatal("the measured loop delivered nothing")
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
			h := cal.pop(pk)
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
