package pktsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sate/internal/par"
	"sate/internal/rules"
	"sate/internal/te"
)

// This file keeps the engine the calendar queue replaced — a binary event
// heap of 40-byte events, a ring buffer per port, append-grown schedules and
// a two-probe hop lookup — verbatim as refRun, the oracle the production
// engine must match bit for bit: same counters, same latency series in the
// same delivery order (hence the same jitter draw order).

type event struct {
	t    float64
	seq  uint64
	kind uint8
	node int32 // evArrive: node the packet reaches
	port int32 // evDepart: port finishing serialization
	pkt  int32 // index into refEngine.packets
}

func eventLess(a, b event) bool {
	if a.t < b.t {
		return true
	}
	if b.t < a.t {
		return false
	}
	return a.seq < b.seq
}

type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h.ev[i], h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(h.ev[l], h.ev[small]) {
			small = l
		}
		if r < last && eventLess(h.ev[r], h.ev[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
	return top
}

type ring struct {
	buf  []int32
	head int
	n    int
}

func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) push(pkt int32) {
	r.buf[(r.head+r.n)%len(r.buf)] = pkt
	r.n++
}

func (r *ring) pop() int32 {
	pkt := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return pkt
}

type refPort struct {
	port
	q ring
}

type refPacket struct {
	key       uint64
	dst       int32
	hops      int32
	injectSec float64
}

type refEngine struct {
	cfg     Config
	ports   []refPort
	portIdx map[uint64]int32

	cur, prev []map[uint64]int32 // per node: key -> next hop
	switchAt  []float64

	packets []refPacket
	heap    eventHeap
	seq     uint64
	rng     *rand.Rand
	maxHops int32

	spikes, downs []window
	res           *Result
}

// refNextHops is the old compileGen: per node, key -> next-hop node.
func refNextHops(spec *RunSpec, prev bool, numNodes int) []map[uint64]int32 {
	p, a := spec.Problem, spec.Alloc
	if prev {
		p, a = spec.Update.PrevProblem, spec.Update.PrevAlloc
	}
	next := make([]map[uint64]int32, numNodes)
	for node, tbl := range rules.Compile(p, a).Tables {
		m := make(map[uint64]int32, len(tbl.Rules))
		for _, r := range tbl.Rules {
			m[fwdKey(r.Flow.Src, r.Flow.Dst, r.Label)] = int32(r.Next)
		}
		next[node] = m
	}
	return next
}

// refRun is the parent commit's Run, minus the obs registry (a no-op sink
// there too when nil). It handles untruncated runs only: its per-stream
// quota is the old MaxPackets/len(streams).
func refRun(t *testing.T, spec *RunSpec, cfg Config) *Result {
	t.Helper()
	cfg = cfg.Defaults()
	if err := validate(spec); err != nil {
		t.Fatal(err)
	}
	ports, portIdx, err := buildPorts(spec, cfg.PacketBits)
	if err != nil {
		t.Fatal(err)
	}
	numNodes := spec.Snap.NumNodes
	e := &refEngine{
		cfg:     cfg,
		portIdx: portIdx,
		cur:     refNextHops(spec, false, numNodes),
		rng:     rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ 0x6a74746572)))),
		maxHops: int32(numNodes) + 8,
		res:     &Result{},
	}
	for _, pt := range ports {
		e.ports = append(e.ports, refPort{port: pt, q: ring{buf: make([]int32, cfg.QueuePkts)}})
	}
	if u := spec.Update; u != nil {
		e.prev = refNextHops(spec, true, numNodes)
		e.switchAt = make([]float64, numNodes)
		for i := range e.switchAt {
			d := 0.0
			if i < len(u.DelaysSec) {
				d = u.DelaysSec[i]
			}
			e.switchAt[i] = u.AtSec + d
		}
	}

	streams := buildStreams(spec, cfg.HorizonSec)
	if len(streams) == 0 {
		return e.res
	}
	quota := cfg.MaxPackets / len(streams)
	for si := range streams {
		st := &streams[si]
		rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ mix64(uint64(si)+1)))))
		base := float64(cfg.PacketBits) / (st.rateMbps * 1e6)
		tm := st.startSec + rng.Float64()*base
		n := 0
		for tm < st.endSec {
			if n >= quota {
				t.Fatalf("refRun: stream %d overruns the old per-stream quota %d", si, quota)
			}
			n++
			pid := int32(len(e.packets))
			e.packets = append(e.packets, refPacket{key: st.key, dst: st.dst, injectSec: tm})
			e.push(event{t: tm, kind: evArrive, node: st.src, pkt: pid})
			iv := base
			if b := cfg.Burst; b != nil && b.Factor > 0 && tm >= b.StartSec && tm < b.StartSec+b.DurSec {
				iv = base / b.Factor
			}
			tm += iv
		}
	}
	e.res.Injected = len(e.packets)

	master := rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ 0x686f76657273))))
	numLinks := len(ports) / 2
	for i := 0; i < cfg.Spikes; i++ {
		s := master.Float64() * cfg.HorizonSec
		e.spikes = append(e.spikes, window{
			link: int32(master.Intn(numLinks)), start: s, end: s + spikeDurSec, extraSec: spikeExtraSec,
		})
	}
	for i := 0; i < cfg.Handovers; i++ {
		s := master.Float64() * cfg.HorizonSec
		e.downs = append(e.downs, window{
			link: int32(master.Intn(numLinks)), start: s, end: s + handoverDurSec,
		})
	}

	for e.heap.len() > 0 {
		ev := e.heap.pop()
		if ev.kind == evArrive {
			e.arrive(ev)
		} else {
			e.depart(ev)
		}
	}
	return e.res
}

func (e *refEngine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.heap.push(ev)
}

func (e *refEngine) drop(kind int) {
	switch kind {
	case dropQueue:
		e.res.DroppedQueue++
	case dropNoRule:
		e.res.DroppedNoRule++
	case dropDown:
		e.res.DroppedDown++
	default:
		e.res.DroppedLoop++
	}
}

func (e *refEngine) arrive(ev event) {
	p := &e.packets[ev.pkt]
	if ev.node == p.dst {
		e.res.Delivered++
		e.res.LatenciesSec = append(e.res.LatenciesSec, ev.t-p.injectSec)
		return
	}
	if p.hops++; p.hops > e.maxHops {
		e.drop(dropLoop)
		return
	}
	g := e.cur
	if e.switchAt != nil && ev.t < e.switchAt[ev.node] {
		g = e.prev
	}
	next, ok := g[ev.node][p.key]
	if !ok {
		e.drop(dropNoRule)
		return
	}
	pi, ok := e.portIdx[portKey(ev.node, next)]
	if !ok {
		e.drop(dropDown)
		return
	}
	e.enqueue(pi, ev.t, ev.pkt)
}

func (e *refEngine) enqueue(pi int32, t float64, pkt int32) {
	pt := &e.ports[pi]
	for _, w := range e.downs {
		if w.link == pt.link && t >= w.start && t < w.end {
			e.drop(dropDown)
			return
		}
	}
	if !pt.busy {
		pt.busy = true
		if e.res.MaxQueuePkts < 1 {
			e.res.MaxQueuePkts = 1
		}
		e.push(event{t: t + pt.serSec, kind: evDepart, port: pi, pkt: pkt})
		return
	}
	if pt.q.full() {
		e.drop(dropQueue)
		return
	}
	pt.q.push(pkt)
	depth := pt.q.n + 1
	if depth > e.res.MaxQueuePkts {
		e.res.MaxQueuePkts = depth
	}
}

func (e *refEngine) depart(ev event) {
	pt := &e.ports[ev.port]
	d := pt.propSec
	for _, w := range e.spikes {
		if w.link == pt.link && ev.t >= w.start && ev.t < w.end {
			d += w.extraSec
		}
	}
	if e.cfg.JitterFrac > 0 {
		d += e.rng.Float64() * e.cfg.JitterFrac * pt.propSec
	}
	e.push(event{t: ev.t + d, kind: evArrive, node: pt.to, pkt: ev.pkt})
	if pt.q.n > 0 {
		e.push(event{t: ev.t + pt.serSec, kind: evDepart, port: ev.port, pkt: pt.q.pop()})
	} else {
		pt.busy = false
	}
}

// sameResult compares two results bitwise (DeepEqual on the float series),
// treating a nil and an empty latency series as the same empty series.
func sameResult(a, b *Result) bool {
	if len(a.LatenciesSec) == 0 && len(b.LatenciesSec) == 0 {
		x, y := *a, *b
		x.LatenciesSec, y.LatenciesSec = nil, nil
		return reflect.DeepEqual(x, y)
	}
	return reflect.DeepEqual(a, b)
}

// TestEngineMatchesReference runs the calendar engine and the reference
// heap engine over the same inputs and requires the full Result — counters
// and the latency series in delivery order — to be identical.
func TestEngineMatchesReference(t *testing.T) {
	type tc struct {
		name string
		spec *RunSpec
		cfg  Config
	}
	var cases []tc
	for _, seed := range []int64{42, 7, 99} {
		spec, cfg := richSpec(t)
		cfg.Seed = seed
		cases = append(cases, tc{fmt.Sprintf("rich seed %d", seed), spec, cfg})
	}
	{
		// No jitter: hops of equal-rate streams collide on exact instants
		// and only seq decides their order.
		spec, cfg := richSpec(t)
		cfg.JitterFrac = 0
		cases = append(cases, tc{"no jitter", spec, cfg})
	}
	for _, q := range []int{1, 4} {
		spec, cfg := richSpec(t)
		cfg.QueuePkts = q
		cases = append(cases, tc{fmt.Sprintf("queue %d", q), spec, cfg})
	}
	{
		spec, cfg := richSpec(t)
		spec.Update = nil
		cases = append(cases, tc{"no update", spec, cfg})
	}
	{
		spec, cfg := richSpec(t)
		spec.Update.DelaysSec[3] = math.Inf(1)
		spec.Update.DelaysSec[11] = math.Inf(1)
		cases = append(cases, tc{"+Inf delay", spec, cfg})
	}
	{
		// One packet takes 0.12 s to serialize on a 0.1 Mbps link, 2.4
		// laps of the 0.05 s calendar: each departure wraps into a bucket
		// still holding this lap's injections, and the 64 packets left
		// queued at the horizon drain over ~150 laps, one event pending at
		// a time (the pop's whole-lap jump).
		spec := twoSatSpec(t, 0.1, 144)
		cases = append(cases, tc{"slow link, many laps", spec, Config{Seed: 5, HorizonSec: 0.05, JitterFrac: 0.1}})
	}
	{
		// Two slow first hops with different serialization times (1.2 and
		// 2 laps) drain side by side, so bucket lists hold events of
		// different laps interleaved with the fast second hops' arrivals.
		p, snap := diamondSpec(t)
		p.LinkCap[0], p.LinkCap[2] = 0.5, 0.3
		a := te.NewAllocation(p)
		a.X[0][0], a.X[0][1] = 40, 25
		cases = append(cases, tc{"two slow hops in a diamond", &RunSpec{Snap: snap, Problem: p, Alloc: a},
			Config{Seed: 6, HorizonSec: 0.02, JitterFrac: 0.05, QueuePkts: 16, Spikes: 1}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := refRun(t, c.spec, c.cfg)
			if want.Injected == 0 || want.Delivered == 0 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				matchReference(t, c.spec, c.cfg, want, workers)
			}
		})
	}
}

// matchReference runs the engine at the given worker count — one node
// partition per worker, windows one light time long — and fails unless its
// Result is want, bit for bit.
func matchReference(t *testing.T, spec *RunSpec, cfg Config, want *Result, workers int) {
	t.Helper()
	restore := par.SetWorkers(workers)
	got, err := Run(spec, cfg)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(want, got) {
		t.Fatalf("engine at %d workers diverged from the reference:\n  ref: inj=%d del=%d drops=%d/%d/%d/%d maxq=%d\n  got: inj=%d del=%d drops=%d/%d/%d/%d maxq=%d",
			workers,
			want.Injected, want.Delivered, want.DroppedQueue, want.DroppedNoRule, want.DroppedDown, want.DroppedLoop, want.MaxQueuePkts,
			got.Injected, got.Delivered, got.DroppedQueue, got.DroppedNoRule, got.DroppedDown, got.DroppedLoop, got.MaxQueuePkts)
	}
}

// FuzzEngineWindows draws toy runs over richSpec's 24-satellite network —
// link capacities, per-path rates of both generations, queue size, jitter
// on or off, the update instant (or no update), burst, spikes and handovers
// — and requires the engine at 2 and 3 workers, node partitions running
// window by window, to return refRun's Result bit for bit. Each byte of the
// input feeds one knob, cycling when the input is short. The seed corpus is
// testdata/fuzz.
func FuzzEngineWindows(f *testing.F) {
	base, _ := richSpec(f)
	delays := base.Update.DelaysSec
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := 0
		b := func() byte {
			v := data[next%len(data)]
			next++
			return v
		}
		p := base.Problem
		for i := range p.LinkCap {
			p.LinkCap[i] = 5 + float64(b()%64) // a 5–68 Mbps link serializes a packet in 0.18–2.4 ms
		}
		cur, prev := te.NewAllocation(p), te.NewAllocation(p)
		for fi := range p.Flows {
			for pi := range p.Flows[fi].Paths {
				cur.X[fi][pi] = float64(b() % 24)
				prev.X[fi][pi] = float64(b() % 24)
			}
		}
		cfg := Config{
			Seed:       int64(b()),
			HorizonSec: 0.01 + float64(b()%32)*0.002,
			QueuePkts:  1 + int(b()%8),
			Spikes:     int(b() % 4),
			Handovers:  int(b() % 3),
		}
		if v := b(); v&1 != 0 {
			cfg.JitterFrac = 0.1 // off: equal-time ties are decided by numbers alone
		}
		if v := b(); v%4 == 0 {
			cfg.Burst = &Burst{StartSec: 0, DurSec: cfg.HorizonSec / 2, Factor: 1 + float64(v%8)}
		}
		spec := &RunSpec{Snap: base.Snap, Problem: p, Alloc: cur}
		if v := b(); v%4 != 0 {
			spec.Update = &RuleUpdate{PrevProblem: p, PrevAlloc: prev, AtSec: cfg.HorizonSec * float64(v%4) / 4, DelaysSec: delays}
		}
		want := refRun(t, spec, cfg)
		for _, workers := range []int{2, 3} {
			matchReference(t, spec, cfg, want, workers)
		}
	})
}
