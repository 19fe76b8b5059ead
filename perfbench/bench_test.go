package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tinyConfig is a run small enough for a unit test: a few thousand
// triples, one set-up and a couple of measured seconds.
func tinyConfig(workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 5, seconds: 1.5, trace: trace,
		triples: 4000, props: 20, interesting: 12, setups: 1,
	}
}

// chdirRoot runs the test from the repository root, where the benchmark
// runs (the traced run writes its spans under .bench_build there).
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func unitsOf(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// TestEveryMetricEmitted runs every workload untraced and traced at a tiny
// scale and checks that each run reports exactly the catalog's metrics,
// each with its unit, and passes its oracles.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	chdirRoot(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(tinyConfig(w, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := unitsOf(endToEnd)
			if traced {
				want = unitsOf(perLayer)
			}
			got := make(map[string]string, len(res.Metrics))
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, traced, got, want)
			}
		}
	}
}

// TestInjectedWrongRowCountFails shows the read oracle fires: one reply
// with a wrong row count is one failure.
func TestInjectedWrongRowCountFails(t *testing.T) {
	chdirRoot(t)
	cfg := tinyConfig(wRead, false)
	cfg.injectRowCount = true
	res, _, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one counted failure", res.Correct, res.Failed)
	}
	if res.Metrics["ok_ratio"].Value >= 1 {
		t.Fatalf("ok_ratio = %v with a failure counted", res.Metrics["ok_ratio"].Value)
	}
}

// TestInjectedSIViolationFails shows the write oracles fire: with the
// mutator installing stale snapshots, the SI checker and the final-state
// comparison count failures.
func TestInjectedSIViolationFails(t *testing.T) {
	chdirRoot(t)
	cfg := tinyConfig(wWrite, false)
	cfg.injectSI = true
	res, rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || !strings.Contains(rep, "snapshot isolation:") {
		t.Fatalf("correct=%v failed=%d, want counted SI violations\n%s", res.Correct, res.Failed, rep)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and catalog.json in
// step with the catalog the program reports from.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	var bm struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", bm.Workloads, workloads)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEnd}, {"per_layer", bm.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, want %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			g := c.got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s[%d] = %+v, want name %s unit %s better %s bound %v", c.name, i, g, m.Name, m.Unit, m.Better, m.Bound)
			}
		}
	}

	want, err := json.MarshalIndent(theCatalog(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Error("catalog.json is stale: regenerate it with `bash perfbench/run.sh --catalog > perfbench/catalog.json`")
	}
}
