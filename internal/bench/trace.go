package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blackswan/internal/serve"
	"blackswan/internal/trace"
)

// The trace experiment guards the tracing layer the same way the profile
// experiment guards EXPLAIN ANALYZE: a generated BGP workload runs through
// the serving layer on every scheme, once on an untraced service and once
// on a service tracing every request (head sampling at 1.0, so every span
// is recorded and ring-committed — the worst case). Two invariants gate an emitted report:
//
//   - observation only: a traced execution returns byte-identical rows
//     and identical simulated charges to the untraced execution of the
//     same query on the same scheme;
//   - bounded overhead: the summed host time of the traced runs (min of
//     repetitions per cell, so scheduler noise cancels) must stay within
//     a small factor of the untraced runs — CI fails above 1.10.

// TraceBenchOptions configures the trace experiment.
type TraceBenchOptions struct {
	// Queries sizes the generated BGP working set. Default 8.
	Queries int
	// Seed feeds the workload generator and the tracer.
	Seed int64
	// Reps is the per-cell repetition count (min host time is kept).
	// Default 3.
	Reps int
}

func (o TraceBenchOptions) withDefaults() TraceBenchOptions {
	if o.Queries <= 0 {
		o.Queries = 8
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// TraceCell is one system's aggregate of the trace experiment.
type TraceCell struct {
	System  string `json:"system"`
	Queries int    `json:"queries"`
	// PlainMs and TracedMs are the summed per-query minimum host times.
	PlainMs  float64 `json:"plainMs"`
	TracedMs float64 `json:"tracedMs"`
	Ratio    float64 `json:"ratio"`
}

// TraceBenchReport is the experiment's full result; swanbench serializes
// it as the BENCH_trace artifact.
type TraceBenchReport struct {
	Triples int   `json:"triples"`
	Seed    int64 `json:"seed"`
	Queries int   `json:"queries"`
	Reps    int   `json:"reps"`
	// Identical and ChargesEqual are invariants of an emitted report: a
	// violation aborts the run with an error instead.
	Identical    bool `json:"identical"`
	ChargesEqual bool `json:"chargesEqual"`
	// OverheadRatio is summed min-host-time of traced runs over summed
	// min-host-time of untraced runs — the CI guard fails above 1.10.
	OverheadRatio float64 `json:"overheadRatio"`
	// TracesKept counts ring commits on the traced service — proof the
	// traced runs actually recorded spans rather than short-circuiting.
	TracesKept int64       `json:"tracesKept"`
	Spans      int64       `json:"spans"`
	Cells      []TraceCell `json:"cells"`
}

// RunTraceBench runs the trace experiment over the given systems
// (normally BGPSystems: both engines × both schemes).
func RunTraceBench(w *Workload, systems []*System, opt TraceBenchOptions) (*TraceBenchReport, error) {
	opt = opt.withDefaults()
	targets, err := ServeTargets(systems)
	if err != nil {
		return nil, err
	}
	texts := DistinctQueryTexts(w, opt.Seed, opt.Queries)
	report := &TraceBenchReport{
		Triples: w.DS.Graph.Len(), Seed: opt.Seed, Queries: len(texts), Reps: opt.Reps,
		Identical: true, ChargesEqual: true,
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

	var sumPlain, sumTraced time.Duration
	plainSvc, err := serve.New(w.DS.Graph.Dict, w.Estimator(), serve.Config{}, targets...)
	if err != nil {
		return nil, err
	}
	tracer := trace.New(trace.Config{SampleRate: 1, Seed: opt.Seed + 1})
	tracedSvc, err := serve.New(w.DS.Graph.Dict, w.Estimator(), serve.Config{Tracer: tracer}, targets...)
	if err != nil {
		return nil, err
	}
	// Warm both plan caches and the buffer pools so the measured runs
	// compare the tracing layer, not first-touch compilation or I/O.
	for _, t := range targets {
		for _, text := range texts {
			if _, err := plainSvc.ExecText(ctx, text, t.Name); err != nil {
				return nil, fmt.Errorf("bench: trace warm %s: %w", t.Name, err)
			}
			if _, err := tracedSvc.ExecText(ctx, text, t.Name); err != nil {
				return nil, fmt.Errorf("bench: trace warm %s: %w", t.Name, err)
			}
		}
	}
	for _, t := range targets {
		sys := storeOf(t.Name)
		cell := TraceCell{System: t.Name, Queries: len(texts)}
		for _, text := range texts {
			var plainMin, tracedMin time.Duration
			var set bool
			for rep := 0; rep < opt.Reps; rep++ {
				sys.Store.Clock().Reset()
				h0 := time.Now()
				plainRes, err := plainSvc.ExecText(ctx, text, t.Name)
				plainHost := time.Since(h0)
				if err != nil {
					return nil, fmt.Errorf("bench: trace plain %s: %w", t.Name, err)
				}
				plainReal, plainUser := sys.Store.Clock().Real(), sys.Store.Clock().User()

				sys.Store.Clock().Reset()
				h0 = time.Now()
				tctx, _, finish := tracedSvc.TraceStart(ctx, "query", "")
				tracedRes, err := tracedSvc.ExecText(tctx, text, t.Name)
				finish(err)
				tracedHost := time.Since(h0)
				if err != nil {
					return nil, fmt.Errorf("bench: trace traced %s: %w", t.Name, err)
				}
				tracedReal, tracedUser := sys.Store.Clock().Real(), sys.Store.Clock().User()

				if fmt.Sprint(plainRes.Rows) != fmt.Sprint(tracedRes.Rows) {
					return nil, fmt.Errorf("bench: trace: %s: traced result not byte-identical for %q", t.Name, text)
				}
				if plainReal != tracedReal || plainUser != tracedUser {
					return nil, fmt.Errorf("bench: trace: %s: traced charges (real %v, user %v) differ from untraced (real %v, user %v) for %q",
						t.Name, tracedReal, tracedUser, plainReal, plainUser, text)
				}
				if !set || plainHost < plainMin {
					plainMin = plainHost
				}
				if !set || tracedHost < tracedMin {
					tracedMin = tracedHost
				}
				set = true
			}
			cell.PlainMs += float64(plainMin.Microseconds()) / 1e3
			cell.TracedMs += float64(tracedMin.Microseconds()) / 1e3
			sumPlain += plainMin
			sumTraced += tracedMin
		}
		if cell.PlainMs > 0 {
			cell.Ratio = cell.TracedMs / cell.PlainMs
		}
		report.Cells = append(report.Cells, cell)
	}
	st := tracer.Stats()
	report.TracesKept += st.Kept
	for _, rec := range tracer.Traces() {
		report.Spans += int64(len(rec.Spans))
	}
	if sumPlain > 0 {
		report.OverheadRatio = float64(sumTraced) / float64(sumPlain)
	}
	if report.TracesKept == 0 {
		return nil, fmt.Errorf("bench: trace: traced service recorded no traces")
	}
	return report, nil
}

// FormatTraceBench renders the report for the console.
func FormatTraceBench(r *TraceBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "request tracing overhead, %d generated queries (seed %d), min of %d reps per cell\n",
		r.Queries, r.Seed, r.Reps)
	fmt.Fprintf(&b, "byte-identical: %v; charges equal: %v; traces kept %d (%d spans)\n",
		r.Identical, r.ChargesEqual, r.TracesKept, r.Spans)
	fmt.Fprintf(&b, "tracing host overhead: %.3fx (guard: 1.10)\n\n", r.OverheadRatio)
	fmt.Fprintf(&b, "%-18s %10s %10s %8s\n", "system", "plain ms", "traced ms", "ratio")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %10.3f %10.3f %7.3fx\n", c.System, c.PlainMs, c.TracedMs, c.Ratio)
	}
	return b.String()
}
