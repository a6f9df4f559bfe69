package pktsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sate/internal/obs"
	"sate/internal/par"
)

// packet is one in-flight packet and, at the same time, its own event and
// queue node. A packet is in exactly one state — an arrival pending, a
// departure pending, waiting in a port FIFO, or finished — so one next link
// threads it through whichever list holds it (a calendar bucket or a port
// FIFO) and t/seq/kind/where describe its pending event. Packets are stored
// once in a flat slab; lists carry indices.
type packet struct {
	t    float64 // pending event's instant
	seq  uint64  // deterministic tie-break among equal-time events
	next int32   // next packet of the list this one is linked into
	// where is the node an evArrive reaches or the port an evDepart leaves.
	where int32
	kind  uint8

	hops      int32
	dst       int32
	key       uint64
	injectSec float64
}

// window is one scheduled disturbance on an undirected link.
type window struct {
	link     int32
	start    float64
	end      float64
	extraSec float64 // 0 for handover (down) windows
}

type engine struct {
	cfg   Config
	ports []port

	cur      *gen
	prev     *gen      // nil without an update window
	switchAt []float64 // per-node rule-arrival instant; nil without an update

	packets []packet
	seq     uint64     // next sequence number; injections hold 0..len(packets)-1
	rng     *rand.Rand // per-hop jitter stream
	maxHops int32

	// The event loop runs over node partitions (DESIGN.md §15). With one,
	// direct is set, the window is endless and departures schedule their
	// arrivals themselves; with more, each window ends winSec after its
	// first event and the merge schedules the arrivals.
	parts    []part
	partOf   []int32 // node -> partition
	direct   bool
	winSec   float64 // the shortest light time of any port
	winEnd   float64
	arrivals []arrival // the last merge's arrivals, admitted by the next window
	recPool  []rec     // backs every partition's records
	flights  []flight  // the ports' fixed fields for the merge, never written in a window

	spikes []window
	downs  []window

	res *Result

	latHist   *obs.Histogram
	depthHist *obs.Histogram
	delivered *obs.Counter
	dropCtr   [4]*obs.Counter // queue, no_rule, down, loop
}

// part is one node partition: the calendar of events at its nodes and at
// the ports leaving them, its counters, and what a window hands the merge.
type part struct {
	cal calendar
	res Result // counters; the latency series is the engine's

	recs    []rec    // this window's records, in execution order: its share of the pool
	prov    []int32  // departures scheduled this window by provisional id; nilPkt once run
	provSeq []uint64 // each provisional id's final number, set by the merge
	nextSec float64  // the earliest event left after the window, +Inf for none

	held    int // packets pending in its calendar or queued at its ports
	inbound int // the merge's arrivals at its nodes, not yet admitted

	recAt, provAt int     // merge cursors into recs and provSeq
	head          float64 // the merge's next record's instant, +Inf past the last
}

// rec is an event of a window that the merge has to see: a delivery, an
// arrival that started an idle port (its departure is the child the merge
// numbers), or a departure (whose arrival the merge schedules, and whose
// port may have taken a queued packet next: a second child).
type rec struct {
	t   float64
	seq uint64  // the event's number, final or provisional
	x   float64 // recDeliver: the packet's latency; departure: its delay before jitter
	h   int32   // departure: the packet
	op  int32   // recDeliver, recStart, or a departure's port<<1 | took a queued packet
}

const (
	recDeliver = int32(-1)
	recStart   = int32(-2)
)

// provBit marks a provisional number: the departure's id among those its
// partition scheduled this window. Every final number precedes it, and ids
// follow execution order, as the final numbers will.
const provBit = uint64(1) << 63

// flight is what the merge reads of a port. A copy apart from the ports,
// whose queue fields the partitions write, stays in the merging core's
// cache.
type flight struct {
	propSec float64
	to      int32
}

// arrival is one the merge scheduled, waiting for the next window to put it
// into its node's partition.
type arrival struct {
	t    float64
	seq  uint64
	h    int32
	node int32
}

const (
	dropQueue = iota
	dropNoRule
	dropDown
	dropLoop
)

// Run executes spec under cfg and returns the accounting. The run is
// bitwise-deterministic for a fixed cfg.Seed at any SATE_WORKERS setting.
func Run(spec *RunSpec, cfg Config) (*Result, error) {
	e, err := newEngine(spec, cfg)
	if err != nil {
		return nil, err
	}
	e.run()
	e.cfg.Registry.Gauge("pktsim_queue_high_water_pkts").Set(float64(e.res.MaxQueuePkts))
	return e.res, nil
}

// newEngine validates spec and builds a loaded engine: ports, forwarding
// generations, disturbance windows, and every injection pending in the
// calendar. Everything sized by the packet count is allocated here, once.
func newEngine(spec *RunSpec, cfg Config) (*engine, error) {
	cfg = cfg.Defaults()
	if err := validate(spec); err != nil {
		return nil, err
	}
	ports, portIdx, err := buildPorts(spec, cfg.PacketBits)
	if err != nil {
		return nil, err
	}
	numNodes := spec.Snap.NumNodes
	cur, err := compileGen(spec.Problem, spec.Alloc, numNodes, portIdx)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:     cfg,
		ports:   ports,
		cur:     cur,
		rng:     rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ 0x6a74746572)))), // "jitter" stream
		maxHops: int32(numNodes) + 8,
		res:     &Result{},
	}
	if u := spec.Update; u != nil {
		e.prev, err = compileGen(u.PrevProblem, u.PrevAlloc, numNodes, portIdx)
		if err != nil {
			return nil, err
		}
		e.switchAt = make([]float64, numNodes)
		for i := range e.switchAt {
			d := 0.0
			if i < len(u.DelaysSec) {
				d = u.DelaysSec[i] // +Inf delay: the node never switches
			}
			e.switchAt[i] = u.AtSec + d
		}
	}

	streams := buildStreams(spec, cfg.HorizonSec)
	if len(streams) == 0 {
		// A zero allocation (e.g. a no-demand cycle) is a valid, empty run.
		return e, nil
	}
	n, truncated := planSchedule(streams, &e.cfg)
	e.packets = make([]packet, n)
	fillSchedule(e.packets, streams, &e.cfg)
	e.partition(streams, n, numNodes)
	// Each partition queues the injections at its nodes; the lists sort
	// themselves, so the order of the pushes does not matter.
	par.For(len(e.parts), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for si := range streams {
				if st := &streams[si]; int(e.partOf[st.src]) == i {
					for pid := st.off; pid < st.off+st.n; pid++ {
						e.parts[i].cal.push(e.packets, int32(pid))
					}
					e.parts[i].held += st.n
				}
			}
		}
	})
	e.seq = uint64(n)
	e.res.Truncated = truncated
	e.res.Injected = n
	e.res.LatenciesSec = make([]float64, 0, n)

	// Disturbance schedules draw from their own seed stream so toggling
	// jitter or changing traffic does not reshuffle which links fail when.
	master := rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ 0x686f76657273))))
	numLinks := len(ports) / 2
	e.spikes = make([]window, cfg.Spikes)
	for i := range e.spikes {
		s := master.Float64() * cfg.HorizonSec
		e.spikes[i] = window{
			link: int32(master.Intn(numLinks)), start: s, end: s + spikeDurSec, extraSec: spikeExtraSec,
		}
	}
	e.downs = make([]window, cfg.Handovers)
	for i := range e.downs {
		s := master.Float64() * cfg.HorizonSec
		e.downs[i] = window{
			link: int32(master.Intn(numLinks)), start: s, end: s + handoverDurSec,
		}
	}

	reg := cfg.Registry
	e.latHist = reg.Histogram("pktsim_packet_latency_seconds", LatencyBucketsSec)
	e.depthHist = reg.Histogram("pktsim_queue_depth_pkts", QueueDepthBuckets)
	reg.Counter("pktsim_packets_injected_total").Add(uint64(n))
	e.delivered = reg.Counter("pktsim_packets_delivered_total")
	drops := reg.CounterVec("pktsim_packets_dropped_total", "reason")
	e.dropCtr = [4]*obs.Counter{
		dropQueue:  drops.With("queue"),
		dropNoRule: drops.With("no_rule"),
		dropDown:   drops.With("link_down"),
		dropLoop:   drops.With("loop"),
	}
	return e, nil
}

func validate(spec *RunSpec) error {
	switch {
	case spec == nil || spec.Snap == nil || spec.Problem == nil || spec.Alloc == nil:
		return errors.New("pktsim: RunSpec needs Snap, Problem and Alloc")
	case len(spec.Alloc.X) != len(spec.Problem.Flows):
		return fmt.Errorf("pktsim: allocation covers %d flows, problem has %d",
			len(spec.Alloc.X), len(spec.Problem.Flows))
	case spec.Problem.NumNodes > spec.Snap.NumNodes:
		return fmt.Errorf("pktsim: problem spans %d nodes, snapshot has %d",
			spec.Problem.NumNodes, spec.Snap.NumNodes)
	case len(spec.Snap.Pos) < spec.Snap.NumNodes:
		return fmt.Errorf("pktsim: snapshot has %d positions for %d nodes",
			len(spec.Snap.Pos), spec.Snap.NumNodes)
	}
	if u := spec.Update; u != nil {
		switch {
		case u.PrevProblem == nil || u.PrevAlloc == nil:
			return errors.New("pktsim: RuleUpdate needs PrevProblem and PrevAlloc")
		case len(u.PrevAlloc.X) != len(u.PrevProblem.Flows):
			return fmt.Errorf("pktsim: previous allocation covers %d flows, previous problem has %d",
				len(u.PrevAlloc.X), len(u.PrevProblem.Flows))
		case u.PrevProblem.NumNodes > spec.Snap.NumNodes:
			return fmt.Errorf("pktsim: previous problem spans %d nodes, snapshot has %d",
				u.PrevProblem.NumNodes, spec.Snap.NumNodes)
		case u.AtSec < 0:
			return fmt.Errorf("pktsim: update at %v s", u.AtSec)
		}
	}
	return nil
}

// partition cuts the nodes into par.Workers() contiguous ranges of equal
// expected event load — every packet a stream injects arrives at and leaves
// each node of its path, and arrives at its destination — and sizes each
// range's calendar by its share of that load. A port belongs to its
// from-node's partition. Every delay a departure draws is at least its
// port's light time, so a window as long as the shortest one ends before
// any arrival scheduled inside it. One worker, or a port of zero light
// time, leaves one partition and an endless window.
func (e *engine) partition(streams []stream, n, numNodes int) {
	e.winSec = math.Inf(1)
	for i := range e.ports {
		e.winSec = min(e.winSec, e.ports[i].propSec)
	}
	k := min(par.Workers(), numNodes)
	if k < 2 || !(e.winSec > 0) {
		k, e.winSec = 1, math.Inf(1)
	}
	e.direct = k == 1
	e.partOf = make([]int32, numNodes)
	load := make([]float64, numNodes)
	total := 0.0
	for si := range streams {
		st := &streams[si]
		for i, v := range st.path {
			w := 2.0
			if i == len(st.path)-1 {
				w = 1
			}
			load[v] += w * float64(st.n)
			total += w * float64(st.n)
		}
	}
	share := make([]float64, k)
	acc := 0.0
	for v, l := range load {
		pi := 0
		if total > 0 {
			// A node goes where the middle of its load falls: the cut
			// points are monotone in the node index, so ranges are contiguous.
			pi = min(int(float64(k)*(acc+l/2)/total), k-1)
		}
		e.partOf[v] = int32(pi)
		share[pi] += l
		acc += l
	}
	e.parts = make([]part, k)
	for i := range e.parts {
		p := &e.parts[i]
		np := n
		if k > 1 && total > 0 {
			np = int(math.Ceil(float64(n) * share[i] / total))
		}
		p.cal = newCalendar(np, e.cfg.HorizonSec)
		if k > 1 {
			// A packet departs at most once in a window.
			p.prov = make([]int32, 0, n)
			p.provSeq = make([]uint64, n)
		}
	}
	if k > 1 {
		e.recPool = make([]rec, 2*n)
		e.arrivals = make([]arrival, 0, n)
		e.flights = make([]flight, len(e.ports))
		for i, pt := range e.ports {
			e.flights[i] = flight{propSec: pt.propSec, to: pt.to}
		}
	}
}

// run drains the calendars. Injection is bounded by the horizon; in-flight
// packets drain to completion past it, so tail latencies are not clipped.
func (e *engine) run() {
	for t := e.first(); t < math.Inf(1); t = e.merge() {
		e.open(t)
		par.ForCtx(len(e.parts), 1, e, runWindow)
	}
	e.fold()
}

// open starts a window at t. Each partition's records get a share of the
// pool: two for every packet it will hold once the last merge's arrivals are
// in, since such a packet arrives and departs at most once before the
// window ends and no other packet can reach the partition until the next
// merge. The shares add up to at most two per packet, the pool's size.
func (e *engine) open(t float64) {
	e.winEnd = t + e.winSec
	if e.direct {
		return
	}
	off := 0
	for i := range e.parts {
		p := &e.parts[i]
		p.held += p.inbound
		p.inbound = 0
		p.recs = e.recPool[off : off : off+2*p.held]
		off += 2 * p.held
	}
}

// first is the instant of the earliest injection, +Inf for an empty run.
func (e *engine) first() float64 {
	t := math.Inf(1)
	for i := range e.parts {
		t = min(t, e.parts[i].cal.peek(e.packets))
	}
	return t
}

// fold adds the partitions' counters into the result.
func (e *engine) fold() {
	for i := range e.parts {
		e.res.Merge(&e.parts[i].res)
	}
}

// runWindow runs partitions [lo, hi) through the window: one chunk of the
// pool's dispatch, so partitions run side by side. A partition touches only
// its own calendar, its own ports and the packets they hold.
func runWindow(e *engine, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := &e.parts[i]
		e.admit(p, int32(i))
		for e.stepBefore(p) {
		}
	}
}

// admit readies partition p (index id) for a window. Departures it scheduled
// in the last window and has not run take the numbers the merge gave them —
// in place: they keep their order among themselves and after every older
// number — and then the last merge's arrivals at its nodes join its calendar.
func (e *engine) admit(p *part, id int32) {
	for i, h := range p.prov {
		if h != nilPkt {
			e.packets[h].seq = p.provSeq[i]
		}
	}
	p.prov = p.prov[:0]
	for _, a := range e.arrivals {
		if e.partOf[a.node] == id {
			pk := &e.packets[a.h]
			pk.t, pk.seq, pk.kind, pk.where = a.t, a.seq, evArrive, a.node
			p.cal.push(e.packets, a.h)
		}
	}
}

// stepBefore executes p's earliest pending event if it falls inside the
// window and reports whether it did. If not, it notes that event's instant
// for the merge and moves the scan back to the window's end, where the
// merge's arrivals land.
func (e *engine) stepBefore(p *part) bool {
	t := p.cal.peek(e.packets)
	if !(t < e.winEnd) {
		p.nextSec = t
		p.cal.rewind(e.winEnd)
		return false
	}
	h := p.cal.take(e.packets)
	if e.packets[h].kind == evArrive {
		e.arrive(p, h)
	} else {
		e.depart(p, h)
	}
	return true
}

// merge is the serial step between windows. It walks every partition's
// records in the serial engine's event order — (t, number), where a
// provisional number is looked up in the final numbers this walk has
// already given out, its scheduling event being earlier in the same
// partition — and on the way numbers each scheduled event, draws each
// departure's jitter and logs each delivery, exactly as the serial engine
// does. It returns the next window's start: the earliest pending event or
// new arrival, +Inf once the run is over.
func (e *engine) merge() float64 {
	next := math.Inf(1)
	for i := range e.parts {
		p := &e.parts[i]
		p.recAt, p.provAt = 0, 0
		p.head = math.Inf(1)
		if len(p.recs) > 0 {
			p.head = p.recs[0].t
		}
		next = min(next, p.nextSec)
	}
	// The walk keeps the counter and both logs in locals.
	seq, arrivals, lats := e.seq, e.arrivals[:0], e.res.LatenciesSec
	for {
		p := &e.parts[0]
		for i := 1; i < len(e.parts); i++ {
			q := &e.parts[i]
			if q.head < p.head {
				p = q
			} else if !(p.head < q.head) && q.head < math.Inf(1) && q.headSeq() < p.headSeq() {
				p = q // an equal instant: the earlier number first
			}
		}
		if !(p.head < math.Inf(1)) {
			break
		}
		r := &p.recs[p.recAt]
		if p.recAt++; p.recAt < len(p.recs) {
			p.head = p.recs[p.recAt].t
		} else {
			p.head = math.Inf(1)
		}
		if r.op == recDeliver {
			lats = append(lats, r.x)
			e.latHist.Observe(r.x)
			continue
		}
		if r.op == recStart {
			p.provSeq[p.provAt] = seq
			seq++
			p.provAt++
			continue
		}
		if r.seq&provBit != 0 {
			p.prov[r.seq&^provBit] = nilPkt // ran: nothing to renumber
		}
		f := &e.flights[r.op>>1]
		t := r.t + e.jitter(r.x, f.propSec)
		arrivals = append(arrivals, arrival{t: t, seq: seq, h: r.h, node: f.to})
		e.parts[e.partOf[f.to]].inbound++
		seq++
		next = min(next, t)
		if r.op&1 != 0 {
			p.provSeq[p.provAt] = seq
			seq++
			p.provAt++
		}
	}
	e.seq, e.arrivals, e.res.LatenciesSec = seq, arrivals, lats
	return next
}

// headSeq is the number of p's next record, its final one if provisional.
func (p *part) headSeq() uint64 {
	s := p.recs[p.recAt].seq
	if s&provBit != 0 {
		s = p.provSeq[s&^provBit]
	}
	return s
}

func (e *engine) drop(p *part, kind int) {
	p.held--
	switch kind {
	case dropQueue:
		p.res.DroppedQueue++
	case dropNoRule:
		p.res.DroppedNoRule++
	case dropDown:
		p.res.DroppedDown++
	default:
		p.res.DroppedLoop++
	}
	e.dropCtr[kind].Inc()
}

// deliver logs one delivered packet's latency, in delivery order.
func (e *engine) deliver(lat float64) {
	e.res.LatenciesSec = append(e.res.LatenciesSec, lat)
	e.latHist.Observe(lat)
}

// arrive delivers a packet to a node: terminal delivery, or a rule lookup in
// whichever forwarding generation the node runs at this instant.
func (e *engine) arrive(p *part, h int32) {
	pk := &e.packets[h]
	t, node := pk.t, pk.where
	if node == pk.dst {
		lat := t - pk.injectSec
		p.held--
		p.res.Delivered++
		e.delivered.Inc()
		if e.direct {
			e.deliver(lat)
		} else {
			p.recs = append(p.recs, rec{t: t, seq: pk.seq, x: lat, op: recDeliver})
		}
		return
	}
	if pk.hops++; pk.hops > e.maxHops {
		e.drop(p, dropLoop)
		return
	}
	g := e.cur
	if e.switchAt != nil && t < e.switchAt[node] {
		g = e.prev // rules for this cycle have not reached this node yet
	}
	pi, ok := g.out[node][pk.key]
	if !ok {
		e.drop(p, dropNoRule)
		return
	}
	if pi == noPort {
		e.drop(p, dropDown)
		return
	}
	e.enqueue(p, pi, t, h)
}

// enqueue offers a packet to a directed port: dropped if the link is in a
// handover window or the FIFO is full, serialized immediately if the port is
// idle, queued otherwise.
func (e *engine) enqueue(p *part, pi int32, t float64, h int32) {
	pt := &e.ports[pi]
	for _, w := range e.downs {
		if w.link == pt.link && t >= w.start && t < w.end {
			e.drop(p, dropDown)
			return
		}
	}
	if !pt.busy {
		pt.busy = true
		e.depthHist.Observe(1)
		if p.res.MaxQueuePkts < 1 {
			p.res.MaxQueuePkts = 1
		}
		if !e.direct {
			p.recs = append(p.recs, rec{t: t, seq: e.packets[h].seq, op: recStart})
		}
		e.scheduleDepart(p, h, t+pt.serSec, pi)
		return
	}
	if int(pt.qn) == e.cfg.QueuePkts {
		e.drop(p, dropQueue)
		return
	}
	pt.qpush(e.packets, h)
	depth := int(pt.qn) + 1 // queued plus the packet in service
	e.depthHist.Observe(float64(depth))
	if depth > p.res.MaxQueuePkts {
		p.res.MaxQueuePkts = depth
	}
}

// depart completes one packet's serialization: the packet propagates to the
// far end (plus any active delay spike and seeded jitter) and the port takes
// the next queued packet, if any. Inside a window the departure records
// itself with its delay so far; the merge draws its jitter and schedules its
// arrival.
func (e *engine) depart(p *part, h int32) {
	pk := &e.packets[h]
	t, pi := pk.t, pk.where
	pt := &e.ports[pi]
	d := pt.propSec
	for _, w := range e.spikes {
		if w.link == pt.link && t >= w.start && t < w.end {
			d += w.extraSec
		}
	}
	if e.direct {
		pk.t, pk.seq, pk.kind, pk.where = t+e.jitter(d, pt.propSec), e.seq, evArrive, pt.to
		e.seq++
		p.cal.push(e.packets, h)
	} else {
		op := pi << 1
		if pt.qn > 0 {
			op |= 1
		}
		p.recs = append(p.recs, rec{t: t, seq: pk.seq, x: d, h: h, op: op})
		p.held-- // in flight: the merge schedules its arrival
	}
	if pt.qn > 0 {
		e.scheduleDepart(p, pt.qpop(e.packets), t+pt.serSec, pi)
	} else {
		pt.busy = false
	}
}

// scheduleDepart sets packet h's departure from port pi at t and queues it.
// With one partition it takes the next sequence number — the deterministic
// tie-break for equal-time events; inside a window, a provisional one.
func (e *engine) scheduleDepart(p *part, h int32, t float64, pi int32) {
	pk := &e.packets[h]
	pk.t, pk.kind, pk.where = t, evDepart, pi
	if e.direct {
		pk.seq = e.seq
		e.seq++
	} else {
		pk.seq = provBit | uint64(len(p.prov))
		p.prov = append(p.prov, h)
	}
	p.cal.push(e.packets, h)
}

// jitter adds the next draw of the jitter stream to a departure's delay d
// over a port of light time propSec.
func (e *engine) jitter(d, propSec float64) float64 {
	if e.cfg.JitterFrac > 0 {
		d += e.rng.Float64() * e.cfg.JitterFrac * propSec
	}
	return d
}
