package bgp_test

import (
	"fmt"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rel"
)

// TestStreamingGeneratedWorkload is the executor's acceptance bar over the
// grown language: ≥200 generated queries — the mixed serving-shaped
// workload with OPTIONAL, range filters and ORDER BY/LIMIT all enabled —
// must produce byte-identical results (including row order) at the default
// batch size and at a deliberately small one on every storage scheme, and
// every scheme's result must match the independent EvalBGP oracle.
func TestStreamingGeneratedWorkload(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	gen := bgp.NewGenerator(f.ds.Graph, bgp.GenConfig{
		Seed: 707, OptionalProb: 0.4, RangeProb: 0.4, OrderProb: 0.4, LimitProb: 0.5,
	})
	const corpus = 200
	checked, nonEmpty := 0, 0
	construct := map[string]int{}
	for i := 0; checked < corpus && i < 8192; i++ {
		q, _ := gen.Query(i)
		compiled, err := bgp.Compile(q, dict, f.est)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		if hasOptional(q) {
			construct["optional"]++
		}
		if hasRange(q) {
			construct["range"]++
		}
		if hasOrder(q) {
			construct["order"]++
			if q.Limit != nil {
				construct["limit"]++
			}
		}
		// The oracle closes the loop: batch-size identity alone would be
		// satisfied by an executor wrong in the same way at every size.
		oracle, _, err := bgp.EvalBGP(q, f.srcs[f.names[0]], dict, f.cat.Interesting)
		if err != nil {
			t.Fatalf("oracle %q: %v", q.Text(), err)
		}
		for j, name := range f.names {
			want, _, _, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q.Text(), err)
			}
			// Rotate a deliberately small batch size through the schemes so
			// batch-boundary logic sees every operator over the corpus.
			if j == checked%len(f.names) {
				got, _, _, err := core.ExecutePlan(f.srcs[name], compiled.Root, core.ExecOptions{BatchRows: 5})
				if err != nil {
					t.Fatalf("%s: %q: batch 5: %v", name, q.Text(), err)
				}
				if got.W != want.W || fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
					t.Fatalf("%s: %q: batch-5 result differs from default batches (%d vs %d rows)",
						name, q.Text(), got.Len(), want.Len())
				}
			}
			if hasOrder(q) {
				if fmt.Sprint(oracle.Data) != fmt.Sprint(want.Data) {
					t.Fatalf("%s: %q: ordered result differs from oracle", name, q.Text())
				}
			} else if !rel.Equal(oracle, want) {
				t.Fatalf("%s: %q: result differs from oracle (%d vs %d rows)", name, q.Text(), want.Len(), oracle.Len())
			}
			if j == 0 && want.Len() > 0 {
				nonEmpty++
			}
		}
		checked++
	}
	if checked < corpus {
		t.Fatalf("only %d/%d queries generated", checked, corpus)
	}
	if nonEmpty == 0 {
		t.Error("every query returned empty — vacuous corpus")
	}
	for _, c := range []string{"optional", "range", "order", "limit"} {
		if construct[c] < 20 {
			t.Errorf("construct %s appeared in only %d/%d queries — corpus does not exercise it", c, construct[c], checked)
		}
	}
	t.Logf("generated workload: %d checked, %d non-empty, constructs %v", checked, nonEmpty, construct)
}

// TestLimitPeakMemoryGuard is the bounded-memory regression guard on all
// four schemes. LIMIT 10 and ORDER BY … LIMIT 10 over the full triple scan
// and the three most frequent property scans must each hold at most a
// quarter of the peak live intermediate bytes of the same plan with the
// LIMIT removed, and a LIMIT-n scan must pull at most n source batches
// (every batch carries at least one row, and every scanned row reaches the
// limit; an ORDER BY … LIMIT drains its input, so only its memory is
// bounded). Join-shaped queries are not guarded: their hash-join build
// sides are a floor no LIMIT removes.
func TestLimitPeakMemoryGuard(t *testing.T) {
	f := loadFixture(t)
	const n = 10
	type job struct {
		name           string
		limited, plain core.Node
		boundsBatches  bool
	}
	var jobs []job
	ord := core.DictValues{Dict: f.ds.Graph.Dict}
	keys := []core.SortKey{{Col: "o", Desc: true}, {Col: "s"}}
	scans := map[string]core.TermRef{"?p": core.V("p")}
	names := []string{"?p"}
	for _, p := range f.ds.PropsByRank[:3] {
		name := "<" + f.ds.Graph.Dict.Term(p).Value + ">"
		scans[name] = core.C(p)
		names = append(names, name)
	}
	for _, name := range names {
		scan := &core.Access{Pattern: core.Pat(core.V("s"), scans[name], core.V("o"))}
		text := "SELECT * WHERE { ?s " + name + " ?o }"
		jobs = append(jobs,
			job{text + " LIMIT 10", &core.Limit{In: scan, N: n}, scan, true},
			job{text + " ORDER BY DESC(?o) ?s LIMIT 10",
				&core.TopN{In: scan, Keys: keys, Limit: n, Ord: ord},
				&core.TopN{In: scan, Keys: keys, Limit: -1, Ord: ord}, false})
	}
	for _, j := range jobs {
		for _, name := range f.names {
			src := f.srcs[name]
			_, _, ltr, err := core.ExecutePlan(src, j.limited, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: %v", name, j.name, err)
			}
			_, _, ptr, err := core.ExecutePlan(src, j.plain, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q without LIMIT: %v", name, j.name, err)
			}
			if ltr.PeakBytes <= 0 || ptr.PeakBytes <= 0 {
				t.Fatalf("%s: %q: missing peak accounting (%d, %d)", name, j.name, ltr.PeakBytes, ptr.PeakBytes)
			}
			if 4*ltr.PeakBytes > ptr.PeakBytes {
				t.Errorf("%s: %q: peak %d bytes, %d without the LIMIT — want at most a quarter",
					name, j.name, ltr.PeakBytes, ptr.PeakBytes)
			}
			if j.boundsBatches && ltr.SourceBatches > n {
				t.Errorf("%s: %q: pulled %d source batches for %d rows (%d without the LIMIT)",
					name, j.name, ltr.SourceBatches, n, ptr.SourceBatches)
			}
		}
	}
}
