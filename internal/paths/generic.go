package paths

import (
	"container/heap"
	"math"
	"slices"
	"sync"

	"sate/internal/orbit"
	"sate/internal/topology"
)

// Graph is an adjacency view over a snapshot used by the generic algorithms.
type Graph struct {
	N   int
	Adj [][]topology.NodeID
}

// GraphFrom builds a Graph from a snapshot.
func GraphFrom(s *topology.Snapshot) *Graph {
	return &Graph{N: s.NumNodes, Adj: s.Adjacency()}
}

// KShortest returns up to k loop-free minimum-hop-first paths from src to dst
// using the label-correcting k-shortest-walk algorithm (each node may be
// settled up to k times; walks with repeated nodes are discarded). Paths are
// returned in nondecreasing hop count. This is the generic engine used when
// grid enumeration does not apply (e.g. links missing at high latitudes).
//
// Labels live in a pooled index-linked slab rather than a pointer-chained
// heap graph: one allocation per search instead of two per expansion, and no
// pointers for the GC to trace. The priority queue mirrors container/heap's
// sift algorithms exactly, so the pop order — including ties — matches the
// previous heap-of-pointers implementation bit for bit.
func (g *Graph) KShortest(src, dst topology.NodeID, k int) (out []Path) {
	if src == dst || k <= 0 {
		return nil
	}
	sc := kspPool.Get().(*kspScratch)
	defer kspPool.Put(sc)
	sc.reset(g.N)
	sc.labels = append(sc.labels, kspLabel{node: src, hops: 0, prev: -1})
	sc.push(0)
	for len(sc.heap) > 0 {
		li := sc.pop()
		l := sc.labels[li]
		if sc.count[l.node] >= k {
			continue
		}
		sc.count[l.node]++
		if l.node == dst {
			out = append(out, sc.path(li))
			if len(out) >= k {
				return out
			}
			continue
		}
		for _, nb := range g.Adj[l.node] {
			if sc.chainContains(li, nb) {
				continue // loop-free walks only
			}
			sc.labels = append(sc.labels, kspLabel{node: nb, hops: l.hops + 1, prev: li})
			sc.push(int32(len(sc.labels) - 1))
		}
	}
	return out
}

// kspLabel is a node on a partial-path chain in the k-shortest search; prev
// indexes the owning scratch slab (-1 at the source).
type kspLabel struct {
	node topology.NodeID
	hops int32
	prev int32
}

// kspScratch is the per-search state of KShortest, pooled across calls so a
// search costs O(1) allocations. The heap holds label indices ordered by hop
// count.
type kspScratch struct {
	labels []kspLabel
	heap   []int32
	count  []int
}

var kspPool = sync.Pool{New: func() interface{} { return new(kspScratch) }}

func (sc *kspScratch) reset(n int) {
	sc.labels = sc.labels[:0]
	sc.heap = sc.heap[:0]
	if cap(sc.count) < n {
		sc.count = make([]int, n)
	} else {
		sc.count = sc.count[:n]
		for i := range sc.count {
			sc.count[i] = 0
		}
	}
}

func (sc *kspScratch) less(i, j int) bool {
	return sc.labels[sc.heap[i]].hops < sc.labels[sc.heap[j]].hops
}

// push and pop replicate container/heap's Push/Pop (up/down sifts verbatim)
// over the index slice.
func (sc *kspScratch) push(li int32) {
	sc.heap = append(sc.heap, li)
	i := len(sc.heap) - 1
	for {
		parent := (i - 1) / 2
		if parent == i || !sc.less(i, parent) {
			break
		}
		sc.heap[parent], sc.heap[i] = sc.heap[i], sc.heap[parent]
		i = parent
	}
}

func (sc *kspScratch) pop() int32 {
	h := sc.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && sc.less(j2, j1) {
			j = j2
		}
		if !sc.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	top := h[n]
	sc.heap = h[:n]
	return top
}

// chainContains reports whether the chain ending at label li visits n.
func (sc *kspScratch) chainContains(li int32, n topology.NodeID) bool {
	for x := li; x >= 0; x = sc.labels[x].prev {
		if sc.labels[x].node == n {
			return true
		}
	}
	return false
}

// path materializes the chain ending at label li as a Path (source first).
func (sc *kspScratch) path(li int32) Path {
	nodes := make([]topology.NodeID, sc.labels[li].hops+1)
	for x := li; x >= 0; x = sc.labels[x].prev {
		nodes[sc.labels[x].hops] = sc.labels[x].node
	}
	return Path{Nodes: nodes}
}

// ShortestPath returns one minimum-hop path from src to dst, or false if
// disconnected.
func (g *Graph) ShortestPath(src, dst topology.NodeID) (Path, bool) {
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, true
	}
	prev := make([]topology.NodeID, g.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.Adj[u] {
			if prev[v] == -1 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] == -1 {
		return Path{}, false
	}
	var rev []topology.NodeID
	for x := dst; ; x = prev[x] {
		rev = append(rev, x)
		if x == src {
			break
		}
	}
	nodes := make([]topology.NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes}, true
}

// YenKShortest computes the k shortest loopless paths with Yen's algorithm
// [Yen 1971]. It is the classical method the paper identifies as too slow for
// mega-constellations (Appendix C); it serves as the correctness baseline for
// the grid algorithm and as a latency comparison point.
func (g *Graph) YenKShortest(src, dst topology.NodeID, k int) []Path {
	first, ok := g.ShortestPath(src, dst)
	if !ok || k <= 0 {
		return nil
	}
	A := []Path{first}
	var B []Path
	for len(A) < k {
		prev := A[len(A)-1]
		for i := 0; i < prev.Hops(); i++ {
			spurNode := prev.Nodes[i]
			rootPath := Path{Nodes: append([]topology.NodeID(nil), prev.Nodes[:i+1]...)}
			// Ban links used by previous A-paths sharing the root, and ban
			// root nodes (except the spur) to force looplessness.
			banned := make(map[[2]topology.NodeID]bool)
			for _, a := range A {
				if i < len(a.Nodes)-1 && slices.Equal(a.Nodes[:i+1], prev.Nodes[:i+1]) {
					banned[[2]topology.NodeID{a.Nodes[i], a.Nodes[i+1]}] = true
					banned[[2]topology.NodeID{a.Nodes[i+1], a.Nodes[i]}] = true
				}
			}
			blockedNodes := make(map[topology.NodeID]bool)
			for _, n := range rootPath.Nodes[:len(rootPath.Nodes)-1] {
				blockedNodes[n] = true
			}
			spur, ok := g.shortestPathFiltered(spurNode, dst, banned, blockedNodes)
			if !ok {
				continue
			}
			if total, ok := Concat(rootPath, spur); ok {
				B = append(B, total)
			}
		}
		if len(B) == 0 {
			break
		}
		B = Dedup(B)
		// Pick the shortest candidate not already in A.
		bestIdx := -1
		for idx, c := range B {
			if containsPath(A, c) {
				continue
			}
			if bestIdx == -1 || c.Hops() < B[bestIdx].Hops() {
				bestIdx = idx
			}
		}
		if bestIdx == -1 {
			break
		}
		A = append(A, B[bestIdx])
		B = append(B[:bestIdx], B[bestIdx+1:]...)
	}
	return A
}

func containsPath(ps []Path, p Path) bool {
	k := p.Key()
	for _, q := range ps {
		if q.Key() == k {
			return true
		}
	}
	return false
}

func (g *Graph) shortestPathFiltered(src, dst topology.NodeID, bannedEdges map[[2]topology.NodeID]bool, blockedNodes map[topology.NodeID]bool) (Path, bool) {
	prev := make([]topology.NodeID, g.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.Adj[u] {
			if prev[v] != -1 || blockedNodes[v] || bannedEdges[[2]topology.NodeID{u, v}] {
				continue
			}
			prev[v] = u
			queue = append(queue, v)
		}
	}
	if dst == src {
		return Path{Nodes: []topology.NodeID{src}}, true
	}
	if prev[dst] == -1 {
		return Path{}, false
	}
	var rev []topology.NodeID
	for x := dst; ; x = prev[x] {
		rev = append(rev, x)
		if x == src {
			break
		}
	}
	nodes := make([]topology.NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes}, true
}

// ShortestPathByDistance returns the minimum geometric-length path between
// two nodes using Dijkstra over Euclidean link lengths. This is the
// delay-optimal route (propagation delay is length/c); the hop-count paths of
// the grid algorithm optimise switching cost instead.
func (g *Graph) ShortestPathByDistance(src, dst topology.NodeID, pos []orbit.Vec3) (Path, float64, bool) {
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, 0, true
	}
	dist := make([]float64, g.N)
	prev := make([]topology.NodeID, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &distHeap{{node: src}}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(distEntry)
		if e.dist > dist[e.node] {
			continue
		}
		if e.node == dst {
			break
		}
		for _, nb := range g.Adj[e.node] {
			d := e.dist + pos[e.node].Distance(pos[nb])
			if d < dist[nb] {
				dist[nb] = d
				prev[nb] = e.node
				heap.Push(pq, distEntry{node: nb, dist: d})
			}
		}
	}
	if prev[dst] == -1 {
		return Path{}, 0, false
	}
	var rev []topology.NodeID
	for x := dst; ; x = prev[x] {
		rev = append(rev, x)
		if x == src {
			break
		}
	}
	nodes := make([]topology.NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes}, dist[dst], true
}

type distEntry struct {
	node topology.NodeID
	dist float64
}

type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
