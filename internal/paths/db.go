package paths

import (
	"sort"

	"sate/internal/constellation"
	"sate/internal/par"
	"sate/internal/topology"
)

// Pair identifies a source-destination satellite pair.
type Pair struct {
	Src, Dst constellation.SatID
}

// DB is the preconfigured-path database of the TE workflow (Sec. 2.2 step 3).
// It lazily computes k candidate paths per requested pair and maintains them
// incrementally: when the topology changes, only paths that traverse a
// removed link are recomputed (Sec. 4: "<2% of paths per second, 56 ms").
//
// Bulk operations (Precompute, the recompute inside Update) fan the
// independent per-pair k-shortest searches out across the par worker pool;
// only the link-index merge runs serially. DB itself is not safe for
// concurrent use — the parallelism is internal.
type DB struct {
	Cons *constellation.Constellation
	K    int

	router *GridRouter
	snap   *topology.Snapshot
	paths  map[Pair][]Path
	// linkIndex maps a link key to the pairs whose current paths use it.
	linkIndex map[uint64]map[Pair]struct{}

	// Stats accumulates incremental-update accounting.
	Stats UpdateStats
}

// UpdateStats records how much work incremental updates performed.
type UpdateStats struct {
	Updates         int // calls to Update
	PairsTotal      int // pair-path sets held at last update
	PairsRecomputed int // pair-path sets recomputed across all updates
}

// NewDB creates a path database over an initial snapshot. Any warm pairs are
// precomputed immediately (in parallel across the worker pool).
func NewDB(c *constellation.Constellation, s *topology.Snapshot, k int, warm ...Pair) *DB {
	db := &DB{
		Cons:      c,
		K:         k,
		router:    NewGridRouter(c, s),
		snap:      s,
		paths:     make(map[Pair][]Path),
		linkIndex: make(map[uint64]map[Pair]struct{}),
	}
	if len(warm) > 0 {
		db.Precompute(warm)
	}
	return db
}

// Paths returns the candidate paths for a pair, computing them on first use.
func (db *DB) Paths(src, dst constellation.SatID) []Path {
	p := Pair{src, dst}
	if ps, ok := db.paths[p]; ok {
		return ps
	}
	ps := db.router.KShortest(src, dst, db.K)
	db.paths[p] = ps
	db.index(p, ps)
	return ps
}

// Precompute computes and caches the candidate paths of every not-yet-known
// pair in the list, fanning the independent searches out across the worker
// pool. Afterwards Paths for those pairs is a cache hit. Duplicate and
// already-known pairs are skipped.
func (db *DB) Precompute(pairs []Pair) {
	// Early out without allocating: in a replay loop most cycles request
	// pair sets that are already fully cached.
	nMissing := 0
	for _, p := range pairs {
		if _, ok := db.paths[p]; !ok {
			nMissing++
		}
	}
	if nMissing == 0 {
		return
	}
	missing := make([]Pair, 0, nMissing)
	seen := make(map[Pair]struct{}, nMissing)
	for _, p := range pairs {
		if _, ok := db.paths[p]; ok {
			continue
		}
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		missing = append(missing, p)
	}
	results := db.computeAll(missing)
	for i, p := range missing {
		db.paths[p] = results[i]
		db.index(p, results[i])
	}
}

// computeAll runs the k-shortest search for each pair concurrently. The
// searches share only the read-only router (its lazy generic graph is built
// under a sync.Once), and each writes its own result slot, so the output is
// identical to a serial loop.
func (db *DB) computeAll(pairs []Pair) [][]Path {
	out := make([][]Path, len(pairs))
	par.For(len(pairs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = db.router.KShortest(pairs[i].Src, pairs[i].Dst, db.K)
		}
	})
	return out
}

func (db *DB) index(pair Pair, ps []Path) {
	for _, p := range ps {
		for _, l := range p.Links() {
			k := l.Key()
			m := db.linkIndex[k]
			if m == nil {
				m = make(map[Pair]struct{})
				db.linkIndex[k] = m
			}
			m[pair] = struct{}{}
		}
	}
}

func (db *DB) unindex(pair Pair, ps []Path) {
	for _, p := range ps {
		for _, l := range p.Links() {
			k := l.Key()
			if m := db.linkIndex[k]; m != nil {
				delete(m, pair)
				if len(m) == 0 {
					delete(db.linkIndex, k)
				}
			}
		}
	}
}

// Update moves the database to a new snapshot, recomputing only the pairs
// whose paths traverse a removed link. The router is rebased incrementally
// over the link churn instead of rebuilt from scratch. The independent
// recomputations run in parallel; the index merge is serial and processes
// pairs in sorted order so the update is deterministic. It returns the
// number of pairs recomputed.
func (db *DB) Update(s *topology.Snapshot) int {
	added, removed := db.snap.Diff(s)
	db.snap = s
	db.router.Rebase(s, added, removed)
	n := 0
	if len(added) > 0 || len(removed) > 0 {
		n = db.recomputeDirty(removed)
	}
	// With no link churn (positions may still have moved) every cached path
	// remains valid and nothing is recomputed.
	db.Stats.Updates++
	db.Stats.PairsTotal = len(db.paths)
	db.Stats.PairsRecomputed += n
	return n
}

// recomputeDirty recomputes every pair whose cached paths traverse a removed
// link, fanning the searches out across the worker pool and merging results
// serially in sorted pair order (deterministic). Returns the pair count.
func (db *DB) recomputeDirty(removed []topology.Link) int {
	dirtySet := make(map[Pair]struct{})
	for _, l := range removed {
		for pair := range db.linkIndex[l.Key()] {
			dirtySet[pair] = struct{}{}
		}
	}
	dirty := make([]Pair, 0, len(dirtySet))
	for pair := range dirtySet {
		dirty = append(dirty, pair)
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].Src != dirty[j].Src {
			return dirty[i].Src < dirty[j].Src
		}
		return dirty[i].Dst < dirty[j].Dst
	})
	if len(dirty) > 0 {
		// Build the generic fallback graph before the fan-out so the
		// parallel searches do not serialise behind its lazy construction.
		db.router.Prewarm()
	}
	results := db.computeAll(dirty)
	for i, pair := range dirty {
		db.unindex(pair, db.paths[pair])
		db.paths[pair] = results[i]
		db.index(pair, results[i])
	}
	return len(dirty)
}

// KnownPairs returns the number of pairs currently held.
func (db *DB) KnownPairs() int { return len(db.paths) }

// ObsoleteFraction reports, for a set of configured paths computed against a
// reference snapshot, the fraction that are no longer valid in the given
// snapshot (Fig. 4 b).
func ObsoleteFraction(configured []Path, s *topology.Snapshot) float64 {
	if len(configured) == 0 {
		return 0
	}
	links := s.LinkSet()
	obsolete := 0
	for _, p := range configured {
		if !p.ValidIn(links) {
			obsolete++
		}
	}
	return float64(obsolete) / float64(len(configured))
}
