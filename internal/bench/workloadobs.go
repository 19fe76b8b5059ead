package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"blackswan/internal/serve"
	"blackswan/internal/sketch"
)

// The workload-obs experiment guards the workload registry the way the
// trace experiment guards tracing: a generated BGP workload runs through
// the serving layer on every scheme, once with the registry disabled and
// once with it on (the serving default). Three invariants gate an emitted
// report:
//
//   - observation only: with the registry on, every execution returns
//     byte-identical rows and identical simulated charges;
//   - bounded overhead: summed min host time with the registry on stays
//     within a small factor of registry-off — CI fails above 1.10;
//   - honest quantiles: for every fingerprint, the registry's reported
//     p50/p90/p99 must be values whose rank among the exactly-recorded
//     latencies of that fingerprint is within the sketch's ε bound.
//
// A final profiled pass exercises the cardinality-drift side: profiled
// executions must fold per-operator q-error aggregates into the registry.

// WorkloadObsOptions configures the experiment.
type WorkloadObsOptions struct {
	// Queries sizes the generated BGP working set. Default 8.
	Queries int
	// Seed feeds the workload generator.
	Seed int64
	// Reps is the per-cell repetition count (min host time is kept).
	// Default 3.
	Reps int
}

func (o WorkloadObsOptions) withDefaults() WorkloadObsOptions {
	if o.Queries <= 0 {
		o.Queries = 8
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// WorkloadObsCell is one system's aggregate.
type WorkloadObsCell struct {
	System  string `json:"system"`
	Queries int    `json:"queries"`
	// PlainMs and ObservedMs are the summed per-query minimum host times
	// with the registry off resp. on.
	PlainMs    float64 `json:"plainMs"`
	ObservedMs float64 `json:"observedMs"`
	Ratio      float64 `json:"ratio"`
}

// WorkloadObsReport is the experiment's full result; swanbench serializes
// it as the BENCH_workloadobs artifact.
type WorkloadObsReport struct {
	Triples int   `json:"triples"`
	Seed    int64 `json:"seed"`
	Queries int   `json:"queries"`
	Reps    int   `json:"reps"`
	// Identical and ChargesEqual are invariants of an emitted report: a
	// violation aborts the run with an error instead.
	Identical    bool `json:"identical"`
	ChargesEqual bool `json:"chargesEqual"`
	// OverheadRatio is summed min-host-time with the registry on over
	// registry off — the CI guard fails above 1.10.
	OverheadRatio float64 `json:"overheadRatio"`
	// Fingerprints and Observations read the registry after the run —
	// proof it tracked the workload rather than short-circuiting.
	Fingerprints int   `json:"fingerprints"`
	Observations int64 `json:"observations"`
	// QuantileChecks counts the per-fingerprint quantile values verified
	// against the exactly-recorded latencies; every one must sit within
	// the sketch's ε rank bound or the run aborts.
	QuantileChecks int     `json:"quantileChecks"`
	Epsilon        float64 `json:"epsilon"`
	// QErrorOps counts the per-operator q-error aggregates the profiled
	// pass folded into the registry (zero aborts the run).
	QErrorOps int               `json:"qErrorOps"`
	Cells     []WorkloadObsCell `json:"cells"`
}

// RunWorkloadObs runs the workload-registry overhead experiment over the
// given systems (normally BGPSystems: both engines × both schemes).
func RunWorkloadObs(w *Workload, systems []*System, opt WorkloadObsOptions) (*WorkloadObsReport, error) {
	opt = opt.withDefaults()
	targets, err := ServeTargets(systems)
	if err != nil {
		return nil, err
	}
	texts := DistinctQueryTexts(w, opt.Seed, opt.Queries)
	report := &WorkloadObsReport{
		Triples: w.DS.Graph.Len(), Seed: opt.Seed, Queries: len(texts), Reps: opt.Reps,
		Identical: true, ChargesEqual: true, Epsilon: sketch.DefaultEpsilon,
	}
	ctx := context.Background()

	storeOf := func(name string) *System {
		for _, s := range systems {
			if s.Name == name {
				return s
			}
		}
		return nil
	}

	// exact accumulates every latency the observed service's registry saw
	// (warm-up runs included — the registry aggregates them all), keyed by
	// the fingerprint each Result reports (the hash of the canonical text,
	// which may differ from the raw generated text), so the quantile check
	// compares the sketch against the true per-fingerprint distribution.
	exact := map[string][]float64{}
	observe := func(res *serve.Result) {
		ns := res.Latency.Nanoseconds()
		if ns < 0 {
			ns = 0
		}
		exact[res.Fingerprint] = append(exact[res.Fingerprint], float64(ns))
	}

	var sumPlain, sumObserved time.Duration
	plainSvc, err := serve.New(w.DS.Graph.Dict, w.Estimator(), serve.Config{WorkloadCapacity: -1}, targets...)
	if err != nil {
		return nil, err
	}
	observedSvc, err := serve.New(w.DS.Graph.Dict, w.Estimator(), serve.Config{}, targets...)
	if err != nil {
		return nil, err
	}
	// Warm both plan caches and the buffer pools so the measured runs
	// compare the registry's record path, not first-touch compilation
	// or I/O.
	for _, t := range targets {
		for _, text := range texts {
			if _, err := plainSvc.ExecText(ctx, text, t.Name); err != nil {
				return nil, fmt.Errorf("bench: workload-obs warm %s: %w", t.Name, err)
			}
			res, err := observedSvc.ExecText(ctx, text, t.Name)
			if err != nil {
				return nil, fmt.Errorf("bench: workload-obs warm %s: %w", t.Name, err)
			}
			observe(res)
		}
	}
	for _, t := range targets {
		sys := storeOf(t.Name)
		cell := WorkloadObsCell{System: t.Name, Queries: len(texts)}
		for _, text := range texts {
			var plainMin, obsMin time.Duration
			var set bool
			for rep := 0; rep < opt.Reps; rep++ {
				sys.Store.Clock().Reset()
				h0 := time.Now()
				plainRes, err := plainSvc.ExecText(ctx, text, t.Name)
				plainHost := time.Since(h0)
				if err != nil {
					return nil, fmt.Errorf("bench: workload-obs plain %s: %w", t.Name, err)
				}
				plainReal, plainUser := sys.Store.Clock().Real(), sys.Store.Clock().User()

				sys.Store.Clock().Reset()
				h0 = time.Now()
				obsRes, err := observedSvc.ExecText(ctx, text, t.Name)
				obsHost := time.Since(h0)
				if err != nil {
					return nil, fmt.Errorf("bench: workload-obs observed %s: %w", t.Name, err)
				}
				obsReal, obsUser := sys.Store.Clock().Real(), sys.Store.Clock().User()
				observe(obsRes)

				if fmt.Sprint(plainRes.Rows) != fmt.Sprint(obsRes.Rows) {
					return nil, fmt.Errorf("bench: workload-obs: %s: observed result not byte-identical for %q", t.Name, text)
				}
				if plainReal != obsReal || plainUser != obsUser {
					return nil, fmt.Errorf("bench: workload-obs: %s: observed charges (real %v, user %v) differ from plain (real %v, user %v) for %q",
						t.Name, obsReal, obsUser, plainReal, plainUser, text)
				}
				if !set || plainHost < plainMin {
					plainMin = plainHost
				}
				if !set || obsHost < obsMin {
					obsMin = obsHost
				}
				set = true
			}
			cell.PlainMs += float64(plainMin.Microseconds()) / 1e3
			cell.ObservedMs += float64(obsMin.Microseconds()) / 1e3
			sumPlain += plainMin
			sumObserved += obsMin
		}
		if cell.PlainMs > 0 {
			cell.Ratio = cell.ObservedMs / cell.PlainMs
		}
		report.Cells = append(report.Cells, cell)
	}
	if sumPlain > 0 {
		report.OverheadRatio = float64(sumObserved) / float64(sumPlain)
	}

	// Every execution of the observed service was recorded into exact.
	ws := observedSvc.Workload(serve.WorkloadQuery{Limit: -1})
	if ws == nil {
		return nil, fmt.Errorf("bench: workload-obs: registry unexpectedly disabled")
	}
	report.Fingerprints = ws.Fingerprints
	report.Observations = ws.Observations
	if ws.Observations == 0 {
		return nil, fmt.Errorf("bench: workload-obs: registry recorded no observations")
	}
	for _, e := range ws.Entries {
		lats, ok := exact[e.Fingerprint]
		if !ok {
			return nil, fmt.Errorf("bench: workload-obs: registry tracks unknown fingerprint %s", e.Fingerprint)
		}
		if int64(len(lats)) != e.Latency.Count {
			return nil, fmt.Errorf("bench: workload-obs: fingerprint %s: registry saw %d latencies, harness recorded %d",
				e.Fingerprint, e.Latency.Count, len(lats))
		}
		sort.Float64s(lats)
		for _, qv := range []struct {
			q float64
			v time.Duration
		}{{0.50, e.Latency.P50}, {0.90, e.Latency.P90}, {0.99, e.Latency.P99}} {
			if err := checkRank(lats, qv.q, float64(qv.v), ws.Epsilon); err != nil {
				return nil, fmt.Errorf("bench: workload-obs: fingerprint %s p%g: %w", e.Fingerprint, qv.q*100, err)
			}
			report.QuantileChecks++
		}
	}

	// Profiled pass: drive a few profiled executions and require the
	// registry to have folded per-operator q-error aggregates.
	for _, text := range texts {
		if _, err := observedSvc.ExecTextOpts(ctx, text, targets[0].Name, serve.ExecOpts{Profile: true}); err != nil {
			return nil, fmt.Errorf("bench: workload-obs profiled %s: %w", targets[0].Name, err)
		}
	}
	ws = observedSvc.Workload(serve.WorkloadQuery{Limit: -1, By: "qerror"})
	for _, e := range ws.Entries {
		report.QErrorOps += len(e.Ops)
	}
	if report.QErrorOps == 0 {
		return nil, fmt.Errorf("bench: workload-obs: profiled pass folded no q-error aggregates")
	}
	return report, nil
}

// checkRank verifies that value v's rank interval among the sorted exact
// observations intersects [q·n - εn - 1, q·n + εn + 1] — the sketch's
// rank-error contract with one observation of slack for boundary rounding.
func checkRank(sorted []float64, q, v, eps float64) error {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, v) // observations strictly below v
	hi := lo                             // through: observations <= v
	for hi < n && sorted[hi] == v {
		hi++
	}
	if lo == hi {
		return fmt.Errorf("value %.0f was never observed", v)
	}
	target := q * float64(n)
	slack := eps*float64(n) + 1
	if float64(hi) < target-slack || float64(lo) > target+slack {
		return fmt.Errorf("value %.0f has rank in [%d,%d], want within %.1f of %.1f (n=%d)",
			v, lo, hi, slack, target, n)
	}
	return nil
}

// FormatWorkloadObs renders the report for the console.
func FormatWorkloadObs(r *WorkloadObsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload-registry overhead, %d generated queries (seed %d), min of %d reps per cell\n",
		r.Queries, r.Seed, r.Reps)
	fmt.Fprintf(&b, "byte-identical: %v; charges equal: %v; %d fingerprints over %d observations\n",
		r.Identical, r.ChargesEqual, r.Fingerprints, r.Observations)
	fmt.Fprintf(&b, "quantiles verified: %d within eps=%g; q-error aggregates: %d operators\n",
		r.QuantileChecks, r.Epsilon, r.QErrorOps)
	fmt.Fprintf(&b, "registry host overhead: %.3fx (guard: 1.10)\n\n", r.OverheadRatio)
	fmt.Fprintf(&b, "%-18s %10s %10s %8s\n", "system", "plain ms", "observed ms", "ratio")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %10.3f %10.3f %7.3fx\n", c.System, c.PlainMs, c.ObservedMs, c.Ratio)
	}
	return b.String()
}
