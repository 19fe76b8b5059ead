package core

import (
	"context"
	"fmt"
	"testing"

	"blackswan/internal/datagen"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// This file tests the executor against its contract: results and
// simulated charges do not depend on the batch size or the worker pool,
// early termination reaches the physical scans, the bounded heap charges
// n·ceil(log2 k) comparisons, and a LIMIT plan's peak memory stays bounded
// by batches plus operator state rather than whole scan ranges.

// execVariants are the option sets a result- and charge-identity test runs
// beyond the defaults: a deliberately awkward batch size (exercises
// batch-boundary logic), single-row batches, and the worker-pool fan-out.
var execVariants = []ExecOptions{
	{BatchRows: 7},
	{BatchRows: 1},
	{Workers: 3},
}

// charges reads a scheme's cumulative simulated CPU and I/O.
func charges(t *testing.T, src PhysicalSource) (cpu, io int64) {
	t.Helper()
	m, ok := src.Ops().(ChargeMeter)
	if !ok {
		t.Fatalf("%T has no charge meter", src.Ops())
	}
	cpu, io, _ = m.Charges()
	return cpu, io
}

// TestStreamingByteIdenticalPaperQueries runs the twelve benchmark queries
// on every engine × scheme × clustering combination and requires every
// option variant to reproduce the default run's raw output — width, row
// order, bytes — and its simulated charges: a drained plan charges its
// operators' totals once, however its rows were batched or fanned out.
func TestStreamingByteIdenticalPaperQueries(t *testing.T) {
	type fixture struct {
		name string
		dbs  []Database
	}
	var fixtures []fixture
	cf := newCrafted(t)
	fixtures = append(fixtures, fixture{"crafted", allDatabases(t, cf.g, cf.cat)})
	for _, seed := range []int64{100, 101} {
		g, cat := randomFixture(t, seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-%d", seed), allDatabases(t, g, cat)})
	}
	for _, fx := range fixtures {
		for _, db := range fx.dbs {
			src := db.(PhysicalSource)
			for _, q := range BenchmarkQueries() {
				// Warm the buffer pool so every measured run is hot and the
				// runs compare like for like.
				if _, err := Execute(src, q); err != nil {
					t.Fatalf("%s %s %v: %v", fx.name, db.Label(), q, err)
				}
				cpu0, io0 := charges(t, src)
				want, err := Execute(src, q)
				if err != nil {
					t.Fatalf("%s %s %v: %v", fx.name, db.Label(), q, err)
				}
				cpu1, io1 := charges(t, src)
				wantCPU, wantIO := cpu1-cpu0, io1-io0
				for _, opt := range execVariants {
					got, err := ExecuteOpts(src, q, opt)
					if err != nil {
						t.Fatalf("%s %s %v %+v: %v", fx.name, db.Label(), q, opt, err)
					}
					cpu2, io2 := charges(t, src)
					if got.W != want.W || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
						t.Fatalf("%s %s %v %+v: result differs from the default run\n got  %d rows %v\n want %d rows %v",
							fx.name, db.Label(), q, opt, got.Len(), got.Data, want.Len(), want.Data)
					}
					if cpu2-cpu1 != wantCPU || io2-io1 != wantIO {
						t.Fatalf("%s %s %v %+v: charged (cpu %d, io %d), default run (cpu %d, io %d)",
							fx.name, db.Label(), q, opt, cpu2-cpu1, io2-io1, wantCPU, wantIO)
					}
					cpu1, io1 = cpu2, io2
				}
			}
		}
	}
}

// streamGen builds a generated data set large enough that early termination
// and memory bounds are measurable, loaded into all schemes.
func streamGen(t *testing.T) (*datagen.Dataset, Catalog, []Database) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Triples: 20_000, Properties: 40, Interesting: 28, Seed: 7,
	})
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	cat := generatedCatalog(t, ds)
	return ds, cat, allDatabases(t, ds.Graph, cat)
}

// TestStreamingEarlyTermination asserts a LIMIT-n plan pulls O(n) rows'
// worth of scan batches instead of draining the source: the close signal
// propagates from Limit through the pipeline into the physical scan.
func TestStreamingEarlyTermination(t *testing.T) {
	ds, _, dbs := streamGen(t)
	access := &Access{Pattern: Pat(V("s"), C(ds.Vocab.Type), V("o"))}
	limited := &Limit{In: access, N: 5}
	const batch = 16
	for _, db := range dbs {
		src := db.(PhysicalSource)
		full, _, ftr, err := ExecutePlan(src, access, ExecOptions{BatchRows: batch})
		if err != nil {
			t.Fatalf("%s: full scan: %v", db.Label(), err)
		}
		if full.Len() <= 10*5 {
			t.Fatalf("%s: fixture too small for the property (%d type rows)", db.Label(), full.Len())
		}
		lim, _, ltr, err := ExecutePlan(src, limited, ExecOptions{BatchRows: batch})
		if err != nil {
			t.Fatalf("%s: limited scan: %v", db.Label(), err)
		}
		if lim.Len() != 5 {
			t.Fatalf("%s: LIMIT 5 returned %d rows", db.Label(), lim.Len())
		}
		if fmt.Sprint(lim.Data) != fmt.Sprint(full.Data[:5*full.W]) {
			t.Fatalf("%s: LIMIT prefix differs from the full scan's first rows", db.Label())
		}
		// O(n) batches, not O(input): the SPO-clustered triple stores scan
		// the whole table with a residual filter (the paper's structural
		// point against that clustering), so their batches carry only a few
		// matching rows — still a constant number of batches for five rows,
		// against ~1250 for the full drain.
		if ltr.SourceBatches*50 >= ftr.SourceBatches {
			t.Errorf("%s: LIMIT 5 pulled %d source batches, full scan %d — no early termination",
				db.Label(), ltr.SourceBatches, ftr.SourceBatches)
		}
		// The vertical schemes deliver only matching rows, so five rows is
		// exactly one batch.
		switch db.(type) {
		case *RowVert, *ColVert:
			if ltr.SourceBatches != 1 {
				t.Errorf("%s: LIMIT 5 with batch %d pulled %d source batches, want 1",
					db.Label(), batch, ltr.SourceBatches)
			}
		}
	}
}

// TestStreamingTopNHeapCompares pins the bounded-heap cost model: a TopN
// with limit k over n input rows returns the first k rows of the full sort,
// charges n·ceil(log2 k) comparisons and is marked Heap in the trace, while
// plain ORDER BY runs the engine's full sort at n·ceil(log2 n).
func TestStreamingTopNHeapCompares(t *testing.T) {
	cf := newCrafted(t)
	ord := DictValues{Dict: cf.g.Dict}
	access := &Access{Pattern: Pat(V("s"), C(cf.cat.Consts.Type), V("o"))}
	keys := []SortKey{{Col: "o"}, {Col: "s"}}
	for _, db := range allDatabases(t, cf.g, cf.cat) {
		src := db.(PhysicalSource)
		all := &TopN{In: access, Keys: keys, Limit: -1, Ord: ord}
		sorted, _, atr, err := ExecutePlan(src, all, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: ORDER BY: %v", db.Label(), err)
		}
		if len(atr.TopNs) != 1 || atr.TopNs[0].Heap {
			t.Fatalf("%s: unbounded ORDER BY should not use the heap: %+v", db.Label(), atr.TopNs)
		}
		full := atr.TopNs[0]
		if wantCmp := sortCompares(full.Input); full.Compares != wantCmp {
			t.Errorf("%s: full sort of %d rows charged %d compares, want %d",
				db.Label(), full.Input, full.Compares, wantCmp)
		}
		for _, k := range []int{1, 2, 3} {
			topn := &TopN{In: access, Keys: keys, Limit: k, Ord: ord}
			got, _, str, err := ExecutePlan(src, topn, ExecOptions{BatchRows: 3})
			if err != nil {
				t.Fatalf("%s: TopN: %v", db.Label(), err)
			}
			if fmt.Sprint(got.Data) != fmt.Sprint(sorted.Data[:k*sorted.W]) {
				t.Fatalf("%s: TopN limit %d: %v, full sort prefix %v", db.Label(), k, got.Data, sorted.Data[:k*sorted.W])
			}
			if len(str.TopNs) != 1 {
				t.Fatalf("%s: %d TopN stats", db.Label(), len(str.TopNs))
			}
			s := str.TopNs[0]
			if !s.Heap {
				t.Errorf("%s: TopN limit %d not marked Heap", db.Label(), k)
			}
			if s.Input != full.Input {
				t.Errorf("%s: TopN input rows: heap %d, full sort %d", db.Label(), s.Input, full.Input)
			}
			n := int64(s.Input)
			if wantCmp := n * ceilLog2(k); s.Compares != wantCmp {
				t.Errorf("%s: heap TopN(n=%d, k=%d) charged %d compares, want n·ceil(log2 k) = %d",
					db.Label(), n, k, s.Compares, wantCmp)
			}
		}
	}
}

// TestStreamingPeakMemoryBounded asserts the headline memory claim: a
// LIMIT-10 plan's tracked peak bytes are at least 10× below the same scan
// drained without the LIMIT, which holds the whole scanned range.
func TestStreamingPeakMemoryBounded(t *testing.T) {
	_, _, dbs := streamGen(t)
	scan := &Access{Pattern: Pat(V("s"), V("p"), V("o"))}
	plan := &Limit{In: scan, N: 10}
	for _, db := range dbs {
		src := db.(PhysicalSource)
		all, _, mtr, err := ExecutePlan(src, scan, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: full scan: %v", db.Label(), err)
		}
		got, _, str, err := ExecutePlan(src, plan, ExecOptions{BatchRows: 64})
		if err != nil {
			t.Fatalf("%s: LIMIT 10: %v", db.Label(), err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(all.Data[:10*all.W]) {
			t.Fatalf("%s: LIMIT 10 is not the scan's prefix", db.Label())
		}
		if str.PeakBytes <= 0 || mtr.PeakBytes <= 0 {
			t.Fatalf("%s: missing peak-memory accounting: limited %d, full %d",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
		if str.PeakBytes*10 > mtr.PeakBytes {
			t.Errorf("%s: LIMIT 10 peak %d bytes, full scan %d — want ≥10× reduction",
				db.Label(), str.PeakBytes, mtr.PeakBytes)
		}
	}
}

// TestStreamingWorkerChargeDeterminism pins worker-pool accounting: with the
// pool on and the clock in overlapped mode, a fully drained query
// charges the same simulated CPU and I/O on every run, regardless of how
// the fan-out's goroutines interleave.
func TestStreamingWorkerChargeDeterminism(t *testing.T) {
	ds, cat, _ := streamGen(t)
	store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30})
	db, err := LoadRowVert(rowstore.NewEngine(store), ds.Graph, cat)
	if err != nil {
		t.Fatalf("LoadRowVert: %v", err)
	}
	store.Clock().SetOverlapped(true)
	opt := ExecOptions{Workers: 4}
	q := Query{ID: Q2} // unbound-property fan-out over every table
	run := func() (user, io int64) {
		u0, i0 := store.Clock().User(), store.Clock().IO()
		if _, err := ExecuteOpts(db, q, opt); err != nil {
			t.Fatalf("q2: %v", err)
		}
		return int64(store.Clock().User() - u0), int64(store.Clock().IO() - i0)
	}
	run() // warm the buffer pool so repeated runs are hot and comparable
	u1, io1 := run()
	for i := 0; i < 3; i++ {
		u, io := run()
		if u != u1 || io != io1 {
			t.Fatalf("run %d charged (cpu %d, io %d), first hot run (cpu %d, io %d) — nondeterministic worker accounting",
				i+2, u, io, u1, io1)
		}
	}
	if !store.Clock().Overlapped() {
		t.Fatal("clock lost its overlapped mode")
	}
}

// TestStreamingContextCancel asserts a cancelled context aborts a plan at a
// batch boundary with ctx.Err.
func TestStreamingContextCancel(t *testing.T) {
	cf := newCrafted(t)
	dbs := allDatabases(t, cf.g, cf.cat)
	src := dbs[0].(PhysicalSource)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := PlanFor(Query{ID: Q2}, cf.cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ExecutePlanCtx(ctx, src, p.Root, ExecOptions{}); err == nil {
		t.Fatal("cancelled plan returned no error")
	} else if ctx.Err() == nil || err.Error() == "" {
		t.Fatalf("unexpected error: %v", err)
	}
}
