package colstore_test

import (
	"math/rand"
	"testing"
	"time"

	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// These tests run the executor's engine-agnostic operators on the column
// engine's vocabulary (colstore.Relational as core.PhysicalOps): the rows
// each operator produces, and that it charges the engine's Costs rates in
// the accounting calls of its vector decomposition.

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

func newOps() (colstore.Relational, *simio.Store) {
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30, PageSize: 4096})
	return colstore.Relational{E: colstore.NewEngine(store)}, store
}

func TestHashJoinAndMergeJoinAgree(t *testing.T) {
	ops, store := newOps()
	c := ops.E.Costs
	rng := rand.New(rand.NewSource(6))
	l, r := rel.New(2), rel.New(2)
	for i := 0; i < 400; i++ {
		l.Append(uint64(rng.Intn(40)), uint64(i))
	}
	for i := 0; i < 300; i++ {
		r.Append(uint64(rng.Intn(40)), uint64(i+1000))
	}
	l.Sort()
	r.Sort()
	src := &memSource{ops: ops, tables: map[rdf.ID]*rel.Rel{1: l, 2: r}, ordered: true}
	join := &core.Join{L: scanOf(1, "a"), R: scanOf(2, "b")}
	mj, tr, charged := run(t, store, src, join)
	if len(tr.Joins) != 1 || !tr.Joins[0].Merge {
		t.Fatalf("joins = %+v, want one merge join", tr.Joins)
	}
	out := int64(mj.Len())
	// Key extraction per input, one linear merge, then the materialization
	// of every output row at the pre-projection width.
	if w := cpu(c.NodeStartup, 400*c.FetchValue, 300*c.FetchValue, 700*c.SelectValue, out*4*c.FetchValue); charged != w {
		t.Fatalf("merge join charged %v, want %v", charged, w)
	}
	src.ordered = false
	hj, tr, charged := run(t, store, src, join)
	if len(tr.Joins) != 1 || tr.Joins[0].Merge {
		t.Fatalf("joins = %+v, want one hash join", tr.Joins)
	}
	if !rel.Equal(mj, hj) {
		t.Fatalf("hash join disagrees with merge join: %d vs %d rows", hj.Len(), mj.Len())
	}
	for i := 0; i < hj.Len(); i++ {
		if row := hj.Row(i); row[1] >= 1000 || row[2] < 1000 {
			t.Fatalf("row %d joins the wrong columns: %v", i, row)
		}
	}
	// The smaller right input builds, at the price of a second dispatch.
	if w := cpu(c.NodeStartup, c.NodeStartup, 300*c.FetchValue, 300*c.HashBuild,
		400*c.FetchValue, 400*c.HashProbe, out*4*c.FetchValue); charged != w {
		t.Fatalf("hash join charged %v, want %v", charged, w)
	}
}

func TestGroupCount(t *testing.T) {
	ops, store := newOps()
	c := ops.E.Costs
	src := &memSource{ops: ops, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 7, 1, 7, 2, 8)}}
	g, _, charged := run(t, store, src, &core.Group{In: scanOf(1, "a"), Keys: []string{"k"}})
	if want := pairs(1, 2, 2, 1); !rel.Equal(g, want) {
		t.Fatalf("group by k = %v", g)
	}
	if w := cpu(c.NodeStartup, 3*c.FetchValue, 3*c.GroupValue); charged != w {
		t.Fatalf("group charged %v, want %v", charged, w)
	}
	g2, _, charged := run(t, store, src, &core.Group{In: scanOf(1, "a"), Keys: []string{"k", "a"}})
	if g2.Len() != 2 || g2.W != 3 {
		t.Fatalf("group by k, a = %v", g2)
	}
	if w := cpu(c.NodeStartup, 3*c.FetchValue, 3*c.FetchValue, 3*2*c.GroupValue); charged != w {
		t.Fatalf("two-key group charged %v, want %v", charged, w)
	}
	bad := &core.Group{In: scanOf(1, "a"), Keys: []string{"k", "a", "k"}}
	if _, _, _, err := core.ExecutePlan(src, bad, core.ExecOptions{}); err == nil {
		t.Fatal("group on three keys accepted")
	}
}

func TestUnionDistinct(t *testing.T) {
	ops, store := newOps()
	c := ops.E.Costs
	src := &memSource{ops: ops, tables: map[rdf.ID]*rel.Rel{1: pairs(1, 2, 2, 2), 2: pairs(2, 2, 3, 4)}}
	union := &core.Union{L: scanOf(1, "a"), R: scanOf(2, "a")}
	u, _, charged := run(t, store, src, union)
	if u.Len() != 4 {
		t.Fatalf("union = %v", u)
	}
	// A binary union is a two-part union-all: one dispatch per input.
	if w := cpu(c.NodeStartup, c.NodeStartup, 4*2*c.UnionValue); charged != w {
		t.Fatalf("union charged %v, want %v", charged, w)
	}
	d, _, charged := run(t, store, src, &core.Distinct{In: union})
	if d.Len() != 3 {
		t.Fatalf("distinct = %v", d)
	}
	if w := cpu(c.NodeStartup, c.NodeStartup, 4*2*c.UnionValue, c.NodeStartup, 4*c.DistinctValue); charged != w {
		t.Fatalf("union+distinct charged %v, want %v", charged, w)
	}
}

// TestOpsChargeCPU pins every charge method of the vocabulary: n rows (of
// width w where the vector model cares) charge n × the engine's Costs
// constants, split into the accounting calls of the vector decomposition.
// Scans charge through the engine itself.
func TestOpsChargeCPU(t *testing.T) {
	ops, store := newOps()
	c := ops.E.Costs
	const n, w = 1000, 4
	for _, tc := range []struct {
		name   string
		charge func()
		want   time.Duration
	}{
		{"StreamNode", ops.StreamNode, cpu(c.NodeStartup)},
		{"StreamFilterRows", func() { ops.StreamFilterRows(n, w) }, cpu(n * c.SelectValue)},
		{"StreamHashBuildRows", func() { ops.StreamHashBuildRows(n, w) }, cpu(n*c.FetchValue, n*c.HashBuild)},
		{"StreamHashProbeRows", func() { ops.StreamHashProbeRows(n, w) }, cpu(n*c.FetchValue, n*c.HashProbe)},
		{"StreamMergeRows", func() { ops.StreamMergeRows(n, n) }, cpu(n*c.FetchValue, n*c.FetchValue, 2*n*c.SelectValue)},
		{"StreamUnionNode", ops.StreamUnionNode, cpu(c.NodeStartup, c.NodeStartup)},
		{"StreamUnionRows", func() { ops.StreamUnionRows(n, w) }, cpu(n * w * c.UnionValue)},
		{"StreamDistinctRows/narrow", func() { ops.StreamDistinctRows(n, 3) }, cpu(n * c.DistinctValue)},
		{"StreamDistinctRows/wide", func() { ops.StreamDistinctRows(n, w) }, cpu(n * w * c.DistinctValue)},
		{"StreamRestrictRows", func() { ops.StreamRestrictRows(n, 3) }, cpu(n * c.SelectValue)},
		{"StreamGroupRows", func() { ops.StreamGroupRows(n, 2) }, cpu(n*c.FetchValue, n*c.FetchValue, 2*n*c.GroupValue)},
		{"StreamJoinEmitRows", func() { ops.StreamJoinEmitRows(n, w) }, cpu(n * w * c.FetchValue)},
		{"StreamEmitRows", func() { ops.StreamEmitRows(n, w) }, cpu(n * w * c.FetchValue)},
		{"StreamSortCompares", func() { ops.StreamSortCompares(n) }, cpu(n * c.SortValue)},
	} {
		before := store.Clock().User()
		tc.charge()
		if got := store.Clock().User() - before; got != tc.want {
			t.Errorf("%s charged %v, want %v", tc.name, got, tc.want)
		}
	}
	tb, err := ops.E.CreateTable("t", pairs(1, 2, 3, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	before := store.Clock().User()
	ops.E.FetchAll(tb.Cols[1])
	if w := cpu(c.NodeStartup, 2*c.FetchValue); store.Clock().User()-before != w {
		t.Fatalf("FetchAll of 2 values charged %v, want %v", store.Clock().User()-before, w)
	}
}
