package pktsim

import (
	"errors"
	"fmt"
	"math/rand"

	"sate/internal/obs"
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
	cal     calendar
	seq     uint64     // next sequence number; injections hold 0..len(packets)-1
	rng     *rand.Rand // per-hop jitter stream
	maxHops int32

	spikes []window
	downs  []window

	res *Result

	latHist   *obs.Histogram
	depthHist *obs.Histogram
	delivered *obs.Counter
	dropCtr   [4]*obs.Counter // queue, no_rule, down, loop
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
	e.cal = newCalendar(n, cfg.HorizonSec)
	for pid := range e.packets {
		e.cal.push(e.packets, int32(pid))
	}
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

// schedule sets packet h's pending event and queues it, assigning the next
// sequence number — the deterministic tie-break for equal-time events.
func (e *engine) schedule(h int32, t float64, kind uint8, where int32) {
	p := &e.packets[h]
	p.t, p.seq, p.kind, p.where = t, e.seq, kind, where
	e.seq++
	e.cal.push(e.packets, h)
}

// run drains the calendar. Injection is bounded by the horizon; in-flight
// packets drain to completion past it, so tail latencies are not clipped.
func (e *engine) run() {
	for e.cal.n > 0 {
		e.step()
	}
}

// step executes the earliest pending event.
func (e *engine) step() {
	h := e.cal.pop(e.packets)
	if e.packets[h].kind == evArrive {
		e.arrive(h)
	} else {
		e.depart(h)
	}
}

func (e *engine) drop(kind int) {
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
	e.dropCtr[kind].Inc()
}

// arrive delivers a packet to a node: terminal delivery, or a rule lookup in
// whichever forwarding generation the node runs at this instant.
func (e *engine) arrive(h int32) {
	p := &e.packets[h]
	t, node := p.t, p.where
	if node == p.dst {
		lat := t - p.injectSec
		e.res.Delivered++
		e.res.LatenciesSec = append(e.res.LatenciesSec, lat)
		e.latHist.Observe(lat)
		e.delivered.Inc()
		return
	}
	if p.hops++; p.hops > e.maxHops {
		e.drop(dropLoop)
		return
	}
	g := e.cur
	if e.switchAt != nil && t < e.switchAt[node] {
		g = e.prev // rules for this cycle have not reached this node yet
	}
	pi, ok := g.out[node][p.key]
	if !ok {
		e.drop(dropNoRule)
		return
	}
	if pi == noPort {
		e.drop(dropDown)
		return
	}
	e.enqueue(pi, t, h)
}

// enqueue offers a packet to a directed port: dropped if the link is in a
// handover window or the FIFO is full, serialized immediately if the port is
// idle, queued otherwise.
func (e *engine) enqueue(pi int32, t float64, h int32) {
	pt := &e.ports[pi]
	for _, w := range e.downs {
		if w.link == pt.link && t >= w.start && t < w.end {
			e.drop(dropDown)
			return
		}
	}
	if !pt.busy {
		pt.busy = true
		e.depthHist.Observe(1)
		if e.res.MaxQueuePkts < 1 {
			e.res.MaxQueuePkts = 1
		}
		e.schedule(h, t+pt.serSec, evDepart, pi)
		return
	}
	if int(pt.qn) == e.cfg.QueuePkts {
		e.drop(dropQueue)
		return
	}
	pt.qpush(e.packets, h)
	depth := int(pt.qn) + 1 // queued plus the packet in service
	e.depthHist.Observe(float64(depth))
	if depth > e.res.MaxQueuePkts {
		e.res.MaxQueuePkts = depth
	}
}

// depart completes one packet's serialization: the packet propagates to the
// far end (plus any active delay spike and seeded jitter) and the port takes
// the next queued packet, if any.
func (e *engine) depart(h int32) {
	t, pi := e.packets[h].t, e.packets[h].where
	pt := &e.ports[pi]
	d := pt.propSec
	for _, w := range e.spikes {
		if w.link == pt.link && t >= w.start && t < w.end {
			d += w.extraSec
		}
	}
	if e.cfg.JitterFrac > 0 {
		d += e.rng.Float64() * e.cfg.JitterFrac * pt.propSec
	}
	e.schedule(h, t+d, evArrive, pt.to)
	if pt.qn > 0 {
		e.schedule(pt.qpop(e.packets), t+pt.serSec, evDepart, pi)
	} else {
		pt.busy = false
	}
}
