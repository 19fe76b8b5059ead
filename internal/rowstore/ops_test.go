package rowstore_test

import (
	"math/rand"
	"testing"
	"time"

	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// These tests run the executor's engine-agnostic operators on the row
// engine's vocabulary (core.PhysicalOps): the rows each operator produces,
// and that it charges the engine's Costs rates — one accounting call per
// charge class, with the operator's total row count.

// memSource is a physical source over in-memory (s, o) tables, one per
// property, whose scans charge nothing: a plan executed through it charges
// exactly its operators' work on the engine's vocabulary.
type memSource struct {
	ops     core.PhysicalOps
	tables  map[rdf.ID]*rel.Rel
	ordered bool
}

func (m *memSource) Match(s, p, o rdf.ID) *rel.Rel { return rel.New(3) }
func (m *memSource) Cat() core.Catalog             { return core.Catalog{} }
func (m *memSource) Props() []rdf.ID               { return nil }
func (m *memSource) ScanProp(p, s, o rdf.ID, _ core.ScanCols) (*rel.Rel, error) {
	return m.tables[p], nil
}
func (m *memSource) ScanTriples(s, o rdf.ID, _ core.ScanCols) *rel.Rel { return rel.New(3) }
func (m *memSource) PropOrdered() bool                                 { return m.ordered }
func (m *memSource) Partitioned() bool                                 { return false }
func (m *memSource) RestrictProps(r *rel.Rel, _ int) *rel.Rel          { return r }
func (m *memSource) Ops() core.PhysicalOps                             { return m.ops }

// pairs builds an (s, o) table.
func pairs(kv ...uint64) *rel.Rel {
	r := rel.New(2)
	for i := 0; i < len(kv); i += 2 {
		r.Append(kv[i], kv[i+1])
	}
	return r
}

// scanOf is the access of property p, binding its columns to k and v.
func scanOf(p rdf.ID, v string) core.Node {
	return &core.Access{Pattern: core.Pat(core.V("k"), core.C(p), core.V(v))}
}

// run executes root through src and returns the rows, the trace and the
// simulated CPU the plan charged.
func run(t *testing.T, store *simio.Store, src *memSource, root core.Node) (*rel.Rel, *core.Trace, time.Duration) {
	t.Helper()
	before := store.Clock().User()
	out, _, tr, err := core.ExecutePlan(src, root, core.ExecOptions{BatchRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out, tr, store.Clock().User() - before
}

// cpu is what a sequence of accounting calls charges on machine B: each
// call's baseline nanoseconds scale and truncate separately.
func cpu(calls ...int64) time.Duration {
	var d time.Duration
	for _, ns := range calls {
		if ns > 0 {
			d += time.Duration(float64(ns) * simio.MachineB().CPUScale)
		}
	}
	return d
}

func newOps() (*rowstore.Engine, *simio.Store) {
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30, PageSize: 4096})
	return rowstore.NewEngine(store), store
}

func TestHashJoinCorrect(t *testing.T) {
	e, store := newOps()
	c := e.Costs
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{
		1: pairs(1, 100, 2, 200, 2, 201),
		2: pairs(2, 900, 3, 901, 2, 902),
	}}
	join := &core.Join{L: scanOf(1, "a"), R: scanOf(2, "b")}
	got, tr, charged := run(t, store, src, join)
	want := rel.New(3)
	want.Append(2, 200, 900)
	want.Append(2, 200, 902)
	want.Append(2, 201, 900)
	want.Append(2, 201, 902)
	if !rel.Equal(got, want) {
		t.Fatalf("hash join = %v", got)
	}
	if len(tr.Joins) != 1 || tr.Joins[0].Merge {
		t.Fatalf("joins = %+v, want one hash join", tr.Joins)
	}
	// The left input is no larger, so it builds: one dispatch, three
	// inserts, three probes; the row engine hands joined tuples up for free.
	if w := cpu(c.NodeStartup, 3*c.HashBuild, 3*c.HashProbe); charged != w {
		t.Fatalf("hash join charged %v, want %v", charged, w)
	}
	// A larger left input swaps the build side at the price of a second
	// dispatch; the output column order survives the swap.
	big := rel.New(2)
	for i := 0; i < 100; i++ {
		big.Append(2, uint64(i))
	}
	src.tables[1] = big
	got, _, charged = run(t, store, src, join)
	if got.W != 3 || got.Len() != 200 {
		t.Fatalf("swapped join shape: w=%d n=%d", got.W, got.Len())
	}
	if row := got.Row(0); row[0] != 2 || row[1] >= 100 || row[2] < 900 {
		t.Fatalf("swapped join column order broken: %v", row)
	}
	if w := cpu(c.NodeStartup, c.NodeStartup, 3*c.HashBuild, 100*c.HashProbe); charged != w {
		t.Fatalf("swapped hash join charged %v, want %v", charged, w)
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	e, store := newOps()
	rng := rand.New(rand.NewSource(6))
	l, r := rel.New(2), rel.New(2)
	for i := 0; i < 500; i++ {
		l.Append(uint64(rng.Intn(50)), uint64(i))
		r.Append(uint64(rng.Intn(50)), uint64(i+1000))
	}
	l.Sort()
	r.Sort()
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{1: l, 2: r}, ordered: true}
	join := &core.Join{L: scanOf(1, "a"), R: scanOf(2, "b")}
	mj, tr, charged := run(t, store, src, join)
	if len(tr.Joins) != 1 || !tr.Joins[0].Merge {
		t.Fatalf("joins = %+v, want one merge join", tr.Joins)
	}
	if w := cpu(e.Costs.NodeStartup, 1000*e.Costs.MergeTuple); charged != w {
		t.Fatalf("merge join charged %v, want %v", charged, w)
	}
	src.ordered = false
	hj, _, _ := run(t, store, src, join)
	if !rel.Equal(mj, hj) {
		t.Fatalf("merge join disagrees with hash join: %d vs %d rows", mj.Len(), hj.Len())
	}
}

func TestGroupCountAndHaving(t *testing.T) {
	e, store := newOps()
	c := e.Costs
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 7, 1, 8, 2, 7)}}
	group := &core.Group{In: scanOf(1, "a"), Keys: []string{"k"}}
	g1, _, charged := run(t, store, src, group)
	want1 := pairs(1, 2, 2, 1)
	if !rel.Equal(g1, want1) {
		t.Fatalf("group by k = %v", g1)
	}
	if w := cpu(c.NodeStartup, 3*c.GroupTuple); charged != w {
		t.Fatalf("group charged %v, want %v", charged, w)
	}
	g2, _, _ := run(t, store, src, &core.Group{In: scanOf(1, "a"), Keys: []string{"k", "a"}})
	if g2.Len() != 3 || g2.W != 3 {
		t.Fatalf("group by k, a shape: %v", g2)
	}
	h, _, charged := run(t, store, src, &core.Having{In: group, Col: core.CountCol, Min: 1})
	if h.Len() != 1 || h.Row(0)[0] != 1 {
		t.Fatalf("having = %v", h)
	}
	if w := cpu(c.NodeStartup, 3*c.GroupTuple, c.NodeStartup, 2*c.FilterTuple); charged != w {
		t.Fatalf("group+having charged %v, want %v", charged, w)
	}
}

// TestGroupCountPanicsOnBadKeys: the group operator counts on one or two
// keys; a plan grouping on three is rejected with an error.
func TestGroupCountPanicsOnBadKeys(t *testing.T) {
	e, _ := newOps()
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 7, 1, 8, 2, 7)}}
	bad := &core.Group{In: scanOf(1, "a"), Keys: []string{"k", "a", "k"}}
	if _, _, _, err := core.ExecutePlan(src, bad, core.ExecOptions{}); err == nil {
		t.Fatal("group on three keys accepted")
	}
}

func TestUnionDistinct(t *testing.T) {
	e, store := newOps()
	c := e.Costs
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 1, 2, 2), 2: pairs(2, 2, 3, 3)}}
	union := &core.Union{L: scanOf(1, "a"), R: scanOf(2, "a")}
	u, _, charged := run(t, store, src, union)
	if u.Len() != 4 {
		t.Fatalf("union len = %d", u.Len())
	}
	if w := cpu(c.NodeStartup, 4*c.UnionTuple); charged != w {
		t.Fatalf("union charged %v, want %v", charged, w)
	}
	d, _, charged := run(t, store, src, &core.Distinct{In: union})
	if d.Len() != 3 {
		t.Fatalf("distinct len = %d", d.Len())
	}
	if w := cpu(c.NodeStartup, 4*c.UnionTuple, c.NodeStartup, 4*c.DistinctTuple); charged != w {
		t.Fatalf("union+distinct charged %v, want %v", charged, w)
	}
}

// TestUnionPanicsOnWidthMismatch: a union's branches must bind the same
// columns; branches that disagree are rejected with an error.
func TestUnionPanicsOnWidthMismatch(t *testing.T) {
	e, _ := newOps()
	src := &memSource{ops: e, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 1, 2, 2), 2: pairs(2, 2, 3, 3)}}
	bad := &core.Union{L: scanOf(1, "a"), R: scanOf(2, "b")}
	if _, _, _, err := core.ExecutePlan(src, bad, core.ExecOptions{}); err == nil {
		t.Fatal("union of different columns accepted")
	}
}

// TestOperatorsChargeCPU pins every charge method of the vocabulary: n rows
// charge n × the engine's Costs constant for that operator class, in one
// accounting call. Scans charge through the engine itself.
func TestOperatorsChargeCPU(t *testing.T) {
	e, store := newOps()
	c := e.Costs
	const n = 1000
	for _, tc := range []struct {
		name   string
		charge func()
		want   time.Duration
	}{
		{"StreamNode", e.StreamNode, cpu(c.NodeStartup)},
		{"StreamFilterRows", func() { e.StreamFilterRows(n, 3) }, cpu(n * c.FilterTuple)},
		{"StreamHashBuildRows", func() { e.StreamHashBuildRows(n, 3) }, cpu(n * c.HashBuild)},
		{"StreamHashProbeRows", func() { e.StreamHashProbeRows(n, 3) }, cpu(n * c.HashProbe)},
		{"StreamMergeRows", func() { e.StreamMergeRows(n, n) }, cpu(2 * n * c.MergeTuple)},
		{"StreamUnionNode", e.StreamUnionNode, cpu(c.NodeStartup)},
		{"StreamUnionRows", func() { e.StreamUnionRows(n, 3) }, cpu(n * c.UnionTuple)},
		{"StreamDistinctRows", func() { e.StreamDistinctRows(n, 3) }, cpu(n * c.DistinctTuple)},
		{"StreamRestrictRows", func() { e.StreamRestrictRows(n, 3) }, cpu(n * c.HashProbe)},
		{"StreamGroupRows", func() { e.StreamGroupRows(n, 2) }, cpu(n * c.GroupTuple)},
		{"StreamJoinEmitRows", func() { e.StreamJoinEmitRows(n, 4) }, 0},
		{"StreamEmitRows", func() { e.StreamEmitRows(n, 3) }, cpu(n * c.ScanTuple)},
		{"StreamSortCompares", func() { e.StreamSortCompares(n) }, cpu(n * c.SortTuple)},
	} {
		before := store.Clock().User()
		tc.charge()
		if got := store.Clock().User() - before; got != tc.want {
			t.Errorf("%s charged %v, want %v", tc.name, got, tc.want)
		}
	}
	tb, err := e.CreateTable(rowstore.TableSpec{Name: "t", Width: 2, Clustered: rowstore.Perm{0, 1}}, pairs(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	before := store.Clock().User()
	e.ScanAll(tb)
	if w := cpu(c.NodeStartup, 2*c.ScanTuple); store.Clock().User()-before < w {
		t.Fatalf("scan of 2 tuples charged %v, want at least %v", store.Clock().User()-before, w)
	}
}
