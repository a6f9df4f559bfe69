package ruledist

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/rules"
	"sate/internal/te"
	"sate/internal/topology"
)

// mkRules builds a rule set from (node, src, dst, label, next, rate) tuples,
// sorted per table exactly as rules.Compile would emit them.
func mkRules(t *testing.T, entries ...[6]int) *rules.RuleSet {
	t.Helper()
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for _, e := range entries {
		node := topology.NodeID(e[0])
		tbl := rs.Tables[node]
		if tbl == nil {
			tbl = &rules.Table{Node: node}
			rs.Tables[node] = tbl
		}
		tbl.Rules = append(tbl.Rules, rules.Rule{
			Flow:     rules.FlowKey{Src: topology.NodeID(e[1]), Dst: topology.NodeID(e[2])},
			Label:    e[3],
			Next:     topology.NodeID(e[4]),
			RateMbps: float64(e[5]),
		})
	}
	for _, tbl := range rs.Tables {
		slices.SortFunc(tbl.Rules, rules.CompareKey)
	}
	return rs
}

func TestDiffApplyRoundTrip(t *testing.T) {
	old := mkRules(t,
		[6]int{1, 10, 20, 0, 2, 100},
		[6]int{1, 10, 21, 1, 3, 50},
		[6]int{2, 10, 20, 0, 4, 100},
	)
	new := mkRules(t,
		[6]int{1, 10, 20, 0, 2, 75}, // rate change
		[6]int{1, 11, 20, 0, 5, 30}, // new rule, 10/21 removed
		[6]int{3, 12, 20, 0, 6, 10}, // new table, table 2 dropped
	)
	d := Diff(old, new)
	if d.Empty() {
		t.Fatal("diff of different rule sets is empty")
	}
	got := Apply(old, d)
	if !reflect.DeepEqual(got, new) {
		t.Fatalf("apply(old, diff) = %+v, want %+v", got, new)
	}
	// Self-diff is empty; applying it is a no-op.
	if d := Diff(new, new); !d.Empty() {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	// From nil (version 0) the diff is all upserts.
	d0 := Diff(nil, new)
	if !reflect.DeepEqual(Apply(nil, d0), new) {
		t.Fatal("apply(nil, diff(nil, new)) != new")
	}
	for _, nd := range d0.Nodes {
		if len(nd.Removes) != 0 {
			t.Fatalf("diff from empty has removes: %+v", nd)
		}
	}
}

// requireSameRules compares two rule sets table for table and rule for rule,
// rates by their bits (DeepEqual would call −0 and +0 equal and NaN unequal).
func requireSameRules(t *testing.T, what string, got, want *rules.RuleSet) {
	t.Helper()
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("%s: %d tables, want %d", what, len(got.Tables), len(want.Tables))
	}
	for id, wt := range want.Tables {
		gt := got.Tables[id]
		if gt == nil || gt.Node != id || len(gt.Rules) != len(wt.Rules) {
			t.Fatalf("%s: table %d = %+v, want %+v", what, id, gt, wt)
		}
		for i, w := range wt.Rules {
			g := gt.Rules[i]
			if g.Flow != w.Flow || g.Label != w.Label || g.Next != w.Next || math.Float64bits(g.RateMbps) != math.Float64bits(w.RateMbps) {
				t.Fatalf("%s: table %d rule %d = %+v, want %+v", what, id, i, g, w)
			}
		}
	}
}

// randRuleSet draws tables at some of the nodes in [lo, hi), each a random
// subset of a small key space in table order, with rates over the floats a
// bitwise comparison tells apart.
func randRuleSet(rng *rand.Rand, lo, hi int) *rules.RuleSet {
	rates := []float64{0, math.Copysign(0, -1), 1, 1 + 0x1p-52, 37.5, 5e-324, math.Inf(1), math.NaN()}
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for n := lo; n < hi; n++ {
		if rng.Intn(3) == 0 {
			continue
		}
		tbl := &rules.Table{Node: topology.NodeID(n)}
		for src := 0; src < 3; src++ {
			for dst := 0; dst < 3; dst++ {
				for label := 0; label < 2; label++ {
					if rng.Intn(2) == 0 {
						tbl.Rules = append(tbl.Rules, rules.Rule{
							Flow:  rules.FlowKey{Src: topology.NodeID(src), Dst: topology.NodeID(dst)},
							Label: label, Next: topology.NodeID(rng.Intn(4)), RateMbps: rates[rng.Intn(len(rates))],
						})
					}
				}
			}
		}
		if len(tbl.Rules) > 0 {
			rs.Tables[tbl.Node] = tbl
		}
	}
	return rs
}

// TestApplyDiffProperty: Apply(a, Diff(a, b)) is b, rule for rule with bitwise
// rates, over random pairs — overlapping tables, disjoint node ranges, and the
// empty rule set (nil and allocated) on either side.
func TestApplyDiffProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	empty := &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
	for trial := 0; trial < 300; trial++ {
		a, b := randRuleSet(rng, 0, 6), randRuleSet(rng, 0, 6)
		switch trial % 6 {
		case 1:
			b = randRuleSet(rng, 6, 12) // disjoint tables
		case 2:
			a = nil
		case 3:
			a = empty
		case 4:
			b = empty
		}
		requireSameRules(t, "apply(a, diff(a, b))", Apply(a, Diff(a, b)), b)
	}
}

// TestApplyTakesDeltaInAnyOrder: a delta is applied as the list of edits it
// is — removes, then upserts, the last upsert of a key winning — whatever
// order it arrives in over HTTP. The merge sorts such a delta on its own copy.
func TestApplyTakesDeltaInAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		a, b := randRuleSet(rng, 0, 4), randRuleSet(rng, 0, 4)
		d := Diff(a, b)
		for i := range d.Nodes {
			nd := &d.Nodes[i]
			// A stale upsert ahead of each real one, and a remove of a key that
			// is also upserted: neither may show in the result.
			var ups []Upsert
			for _, u := range nd.Upserts {
				stale := u
				stale.Next, stale.RateMbps = u.Next+1, u.RateMbps+1
				ups = append(ups, stale, u)
				nd.Removes = append(nd.Removes, RuleID{Src: u.Src, Dst: u.Dst, Label: u.Label})
			}
			// Shuffle, keeping each stale upsert ahead of its real one.
			rng.Shuffle(len(ups)/2, func(x, y int) {
				ups[2*x], ups[2*y] = ups[2*y], ups[2*x]
				ups[2*x+1], ups[2*y+1] = ups[2*y+1], ups[2*x+1]
			})
			nd.Upserts = ups
			rng.Shuffle(len(nd.Removes), func(x, y int) { nd.Removes[x], nd.Removes[y] = nd.Removes[y], nd.Removes[x] })
		}
		order := func() (ids []RuleID) {
			for _, nd := range d.Nodes {
				for _, u := range nd.Upserts {
					ids = append(ids, RuleID{Src: u.Src, Dst: u.Dst, Label: u.Label})
				}
				ids = append(ids, nd.Removes...)
			}
			return ids
		}
		arrived := order()
		requireSameRules(t, "apply(a, shuffled diff(a, b))", Apply(a, d), b)
		if !slices.Equal(order(), arrived) {
			t.Fatal("Apply reordered the delta it was given")
		}
	}
}

func TestDiffDeterministicOrder(t *testing.T) {
	new := mkRules(t,
		[6]int{5, 1, 2, 0, 6, 1},
		[6]int{3, 1, 2, 0, 4, 1},
		[6]int{9, 1, 2, 0, 1, 1},
	)
	for i := 0; i < 10; i++ {
		d := Diff(nil, new)
		want := []topology.NodeID{3, 5, 9}
		var got []topology.NodeID
		for _, nd := range d.Nodes {
			got = append(got, nd.Node)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node order %v, want %v", got, want)
		}
	}
}

func TestDeltaNodeLookup(t *testing.T) {
	d := Diff(nil, mkRules(t,
		[6]int{2, 1, 9, 0, 3, 1},
		[6]int{7, 1, 9, 0, 8, 1},
	))
	if nd, ok := d.Node(7); !ok || nd.Node != 7 {
		t.Fatalf("Node(7) = %+v, %v", nd, ok)
	}
	if _, ok := d.Node(5); ok {
		t.Fatal("Node(5) found in delta that never touched node 5")
	}
}

func TestChangelogCatchUpFromEveryVersion(t *testing.T) {
	c := NewChangelog(0)
	if c.Latest() != 0 {
		t.Fatalf("fresh changelog latest = %d", c.Latest())
	}
	versions := []*rules.RuleSet{
		mkRules(t, [6]int{1, 10, 20, 0, 2, 100}),
		mkRules(t, [6]int{1, 10, 20, 0, 2, 80}, [6]int{2, 10, 20, 0, 3, 80}),
		mkRules(t, [6]int{2, 10, 20, 0, 3, 80}),
		mkRules(t, [6]int{2, 10, 20, 0, 3, 80}, [6]int{4, 11, 21, 1, 5, 9}),
	}
	for i, rs := range versions {
		if v := c.Append(rs); v != uint64(i+1) {
			t.Fatalf("Append #%d returned version %d", i+1, v)
		}
	}
	latest := versions[len(versions)-1]
	if !reflect.DeepEqual(c.Full(), latest) {
		t.Fatal("Full() is not the latest rule set")
	}
	// A client at any since-version must converge bit-identically.
	for since := uint64(0); since <= c.Latest(); since++ {
		cu := c.Since(since)
		if cu.Latest != c.Latest() {
			t.Fatalf("since=%d: latest %d", since, cu.Latest)
		}
		var got *rules.RuleSet
		if cu.FullSync {
			got = cu.Full
		} else {
			if since == c.Latest() && !cu.UpToDate() {
				t.Fatalf("since=latest not up to date: %+v", cu)
			}
			if since > 0 {
				got = versions[since-1]
			}
			at := since
			for _, d := range cu.Deltas {
				if d.Seq != at+1 {
					t.Fatalf("since=%d: delta seq %d after version %d", since, d.Seq, at)
				}
				at = d.Seq
				got = Apply(got, d)
			}
			if at != c.Latest() {
				t.Fatalf("since=%d: deltas stop at %d", since, at)
			}
		}
		if got == nil {
			got = &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
		}
		want := latest
		if len(want.Tables) == 0 {
			want = &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catch-up from %d did not converge: %+v != %+v", cu.Since, got, want)
		}
	}
}

func TestChangelogCompaction(t *testing.T) {
	c := NewChangelog(2)
	for i := 1; i <= 5; i++ {
		c.Append(mkRules(t, [6]int{1, 10, 20, 0, 2, i}))
	}
	if c.Latest() != 5 {
		t.Fatalf("latest = %d", c.Latest())
	}
	if c.Floor() != 3 {
		t.Fatalf("floor = %d, want 3 (only deltas 4,5 retained)", c.Floor())
	}
	// Behind the window: full resync carrying the latest rules.
	cu := c.Since(1)
	if !cu.FullSync || cu.Full == nil {
		t.Fatalf("since=1 should full-sync: %+v", cu)
	}
	if !reflect.DeepEqual(cu.Full, c.Full()) {
		t.Fatal("full sync payload is not the latest rule set")
	}
	// Inside the window: deltas only.
	cu = c.Since(3)
	if cu.FullSync || len(cu.Deltas) != 2 {
		t.Fatalf("since=3: %+v", cu)
	}
	// Ahead of latest (a client of a discarded changelog): its rules are
	// not a version of this log, so it full-syncs.
	cu = c.Since(9)
	if !cu.FullSync || cu.Full != c.Full() || len(cu.Deltas) != 0 || cu.UpToDate() {
		t.Fatalf("since=9: %+v", cu)
	}
}

// TestSinceCompactionBoundary pins the exact off-by-one-prone boundary of
// Since against compaction. With max=3 and 6 appends the retained deltas are
// versions 4..6 and floor is 3 — the floor version itself is the OLDEST
// version deltas can still serve a catch-up FROM (its successor delta d4 is
// retained), while floor-1 must full-sync (d3 was compacted; serving
// deltas[0:] there would silently apply d4 onto a version-2 base). Getting
// either edge wrong is silent: a premature full sync still converges, and a
// delta from a compacted base converges on these small tables too — only the
// seq/full-sync shape distinguishes them, so that is what this test checks.
func TestSinceCompactionBoundary(t *testing.T) {
	const max, appends = 3, 6
	c := NewChangelog(max)
	// Keep every published version so delta catch-ups can be replayed from
	// the exact base the client would hold.
	published := []*rules.RuleSet{nil} // index = version; version 0 is empty
	for i := 1; i <= appends; i++ {
		rs := mkRules(t, [6]int{1, 10, 20, 0, 2, i}, [6]int{i, 10, 20, 0, 2, i})
		c.Append(rs)
		published = append(published, rs)
	}
	if c.Latest() != appends {
		t.Fatalf("latest = %d, want %d", c.Latest(), appends)
	}
	if want := uint64(appends - max); c.Floor() != want {
		t.Fatalf("floor = %d, want %d (deltas %d..%d retained)", c.Floor(), want, want+1, appends)
	}
	cases := []struct {
		name      string
		since     uint64
		fullSync  bool
		deltaSeqs []uint64
		upToDate  bool
	}{
		{name: "since=0 (empty client, window compacted)", since: 0, fullSync: true},
		{name: "since=floor-1 (one below boundary)", since: 2, fullSync: true},
		{name: "since=floor (exact boundary: d4 retained)", since: 3, deltaSeqs: []uint64{4, 5, 6}},
		{name: "since=floor+1 (oldest retained delta applied)", since: 4, deltaSeqs: []uint64{5, 6}},
		{name: "since=latest-1", since: 5, deltaSeqs: []uint64{6}},
		{name: "since=latest", since: 6, upToDate: true},
		{name: "since=latest+1 (restarted server)", since: 7, fullSync: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cu := c.Since(tc.since)
			if cu.Latest != c.Latest() || cu.Since != tc.since {
				t.Fatalf("echoed versions: %+v", cu)
			}
			if cu.UpToDate() != tc.upToDate {
				t.Fatalf("UpToDate() = %v, want %v", cu.UpToDate(), tc.upToDate)
			}
			if cu.FullSync != tc.fullSync {
				t.Fatalf("FullSync = %v, want %v", cu.FullSync, tc.fullSync)
			}
			var seqs []uint64
			for _, d := range cu.Deltas {
				seqs = append(seqs, d.Seq)
			}
			if !reflect.DeepEqual(seqs, tc.deltaSeqs) {
				t.Fatalf("delta seqs %v, want %v", seqs, tc.deltaSeqs)
			}
			// Converge the client and require bit-identity with the latest
			// published rule set, from the exact base version it holds.
			var got *rules.RuleSet
			switch {
			case tc.fullSync:
				got = cu.Full
			case tc.upToDate:
				return
			default:
				got = published[tc.since]
				for _, d := range cu.Deltas {
					got = Apply(got, d)
				}
			}
			if !reflect.DeepEqual(got, published[appends]) {
				t.Fatalf("catch-up from %d did not reproduce the latest rule set", tc.since)
			}
		})
	}
}

// TestRestartedChangelogConverges: a consumer that followed a changelog up
// to version 7 keeps polling after that changelog is discarded and a fresh
// one (a restarted controller) has published only 3 versions. Its cursor is
// ahead of latest and its rules belong to the old incarnation; the answer
// must bring it to the fresh log's Full().
func TestRestartedChangelogConverges(t *testing.T) {
	old := NewChangelog(0)
	for i := 1; i <= 7; i++ {
		old.Append(mkRules(t, [6]int{1, 10, 20, 0, 2, i}, [6]int{3, 11, 21, 0, 4, i}))
	}
	have, since := old.Full(), old.Latest()

	fresh := NewChangelog(0)
	for i := 1; i <= 3; i++ {
		fresh.Append(mkRules(t, [6]int{2, 10, 20, 0, 5, 10 * i}))
	}
	cu := fresh.Since(since)
	if cu.FullSync {
		have = cu.Full
	}
	for _, d := range cu.Deltas {
		have = Apply(have, d)
	}
	if !reflect.DeepEqual(have, fresh.Full()) {
		t.Fatalf("consumer at version %d of a discarded changelog did not converge on the fresh one (latest %d): %+v", since, cu.Latest, cu)
	}
}

func TestChangelogSinceZeroAllocs(t *testing.T) {
	c := NewChangelog(4)
	for i := 1; i <= 6; i++ {
		c.Append(mkRules(t, [6]int{1, 10, 20, 0, 2, i}))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		cu := c.Since(4)
		if len(cu.Deltas) != 2 {
			panic("wrong window")
		}
		_ = c.Latest()
	})
	if allocs != 0 {
		t.Fatalf("Since allocated %v times per run", allocs)
	}
}

// TestDiffIndependentOfWorkers: nodes are diffed on the par pool, and the
// delta deep-equals the one-worker delta at every worker count.
func TestDiffIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// reflect.DeepEqual holds no NaN equal to itself, so the rule sets
	// here carry a number in its place.
	finite := func(rs *rules.RuleSet) *rules.RuleSet {
		for _, tbl := range rs.Tables {
			for i := range tbl.Rules {
				if r := &tbl.Rules[i]; math.IsNaN(r.RateMbps) {
					r.RateMbps = 2
				}
			}
		}
		return rs
	}
	for trial := 0; trial < 20; trial++ {
		a, b := finite(randRuleSet(rng, 0, 300)), finite(randRuleSet(rng, 100, 400))
		restore := par.SetWorkers(1)
		want := Diff(a, b)
		restore()
		if len(want.Nodes) < 100 {
			t.Fatalf("trial %d: only %d nodes changed", trial, len(want.Nodes))
		}
		for _, workers := range []int{2, 8} {
			restore := par.SetWorkers(workers)
			got := Diff(a, b)
			restore()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: delta differs from the one-worker delta", trial, workers)
			}
		}
	}
}

// TestRateChangeTouchesOnlyIngress: only a flow's ingress rule carries a
// rate, so two allocations of one problem that differ only in positive rates
// differ by exactly the changed labels' ingress rules — no transit rule is
// upserted and none removed — and a rerouted label upserts the hops its new
// path adds or changes and removes the ones its old path leaves.
func TestRateChangeTouchesOnlyIngress(t *testing.T) {
	flows := []te.FlowDemand{
		{Src: 0, Dst: 7, Paths: []paths.Path{paths.NewPath(0, 1, 2, 7), paths.NewPath(0, 3, 4, 7), paths.NewPath(0, 5, 6, 7)}},
		{Src: 1, Dst: 6, Paths: []paths.Path{paths.NewPath(1, 2, 6), paths.NewPath(1, 5, 6)}},
		{Src: 4, Dst: 2, Paths: []paths.Path{paths.NewPath(4, 3, 0, 1, 2), paths.NewPath(4, 7, 2)}},
		{Src: 6, Dst: 0, Paths: []paths.Path{paths.NewPath(6, 5, 0)}},
	}
	p := &te.Problem{NumNodes: 8, Flows: flows}
	a := &te.Allocation{X: [][]float64{{10, 4, 0}, {2.5, 7}, {1, 3}, {9}}}
	b := &te.Allocation{X: [][]float64{{11, 4, 0}, {2.5, 6.75}, {1, 3}, {8.5}}}
	changed := map[RuleID]bool{{0, 7, 0}: true, {1, 6, 1}: true, {6, 0, 0}: true}

	old, new := rules.Compile(p, a), rules.Compile(p, b)
	d := Diff(old, new)
	got := map[RuleID]bool{}
	for _, nd := range d.Nodes {
		if len(nd.Removes) > 0 {
			t.Errorf("node %d: a rate change removed %+v", nd.Node, nd.Removes)
		}
		for _, u := range nd.Upserts {
			if u.Src != nd.Node {
				t.Errorf("node %d: transit upsert %+v", nd.Node, u)
			}
			got[RuleID{u.Src, u.Dst, u.Label}] = true
		}
	}
	if !reflect.DeepEqual(got, changed) {
		t.Errorf("upserted labels %v, want the changed ones %v", got, changed)
	}
	requireSameRules(t, "apply(old, rate-only diff)", Apply(old, d), new)

	// Reroute flow 0->7's label 1 from 0-3-4-7 to 0-5-4-7 at the same rate:
	// the ingress at 0 gets a new next hop, 5 a new transit rule, 3 loses
	// its rule, and 4, which still forwards to 7, is untouched.
	rerouted := slices.Clone(flows)
	rerouted[0].Paths = []paths.Path{flows[0].Paths[0], paths.NewPath(0, 5, 4, 7), flows[0].Paths[2]}
	moved := rules.Compile(&te.Problem{NumNodes: 8, Flows: rerouted}, b)
	d = Diff(new, moved)
	id := RuleID{Src: 0, Dst: 7, Label: 1}
	want := []NodeDelta{
		{Node: 0, Upserts: []Upsert{{Src: 0, Dst: 7, Label: 1, Next: 5, RateMbps: 4}}},
		{Node: 3, Removes: []RuleID{id}},
		{Node: 5, Upserts: []Upsert{{Src: 0, Dst: 7, Label: 1, Next: 4, RateMbps: 0}}},
	}
	if !reflect.DeepEqual(d.Nodes, want) {
		t.Errorf("reroute delta %+v, want %+v", d.Nodes, want)
	}
	requireSameRules(t, "apply(new, reroute diff)", Apply(new, d), moved)
}

// fuzzRules reads rule sets from raw bytes.
type fuzzRules []byte

func (in *fuzzRules) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// rate is ±0, NaN, ±Inf or a float from eight raw bytes (any NaN payload
// included).
func (in *fuzzRules) rate() float64 {
	switch c := in.byte(); c % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	default:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(in.byte())
		}
		return math.Float64frombits(bits)
	}
}

// ruleSet reads up to six tables at nodes -1..6, each up to eight rules
// over a key space small enough that two sets share keys, kept as
// rules.Table requires: sorted, one rule per key, no empty table. A first
// byte of 0 reads the empty version 0 (nil).
func (in *fuzzRules) ruleSet() *rules.RuleSet {
	if in.byte() == 0 {
		return nil
	}
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for n := in.byte() % 7; n > 0; n-- {
		node := topology.NodeID(int(in.byte()%8) - 1)
		tbl := &rules.Table{Node: node}
		for m := in.byte() % 9; m > 0; m-- {
			k := in.byte()
			tbl.Rules = append(tbl.Rules, rules.Rule{
				Flow:  rules.FlowKey{Src: topology.NodeID(k % 4), Dst: topology.NodeID(k / 4 % 4)},
				Label: int(k / 16 % 3), Next: topology.NodeID(in.byte() % 8), RateMbps: in.rate(),
			})
		}
		slices.SortStableFunc(tbl.Rules, rules.CompareKey)
		tbl.Rules = slices.CompactFunc(tbl.Rules, func(a, b rules.Rule) bool { return rules.CompareKey(a, b) == 0 })
		if len(tbl.Rules) > 0 {
			rs.Tables[node] = tbl
		}
	}
	return rs
}

// FuzzDiffApply: for two rule sets read from raw bytes, rates from raw float
// bits, Apply(old, Diff(old, new)) is new rule for rule with bitwise rates,
// and Diff(new, new) is empty.
func FuzzDiffApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 2, 17, 1, 0, 33, 2, 2, 1, 4, 2, 17, 1, 5, 1, 2, 3, 4, 5, 6, 7, 8, 33, 2, 1})
	f.Add([]byte{0, 1, 3, 0, 3, 1, 1, 2, 5, 64, 0, 0, 0, 0, 0, 1, 9, 3, 2, 7, 1, 0, 4, 4, 7, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzRules(data)
		old, new := in.ruleSet(), in.ruleSet()
		want := new
		if want == nil {
			want = &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
		}
		requireSameRules(t, "apply(old, diff(old, new))", Apply(old, Diff(old, new)), want)
		if d := Diff(new, new); !d.Empty() {
			t.Fatalf("diff(new, new) = %+v, want empty", d)
		}
	})
}
