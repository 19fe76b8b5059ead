package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// The profile experiment exercises EXPLAIN ANALYZE end to end: every paper
// query plus a generated BGP workload runs on every scheme with
// per-operator profiling on, and the report records, per
// operator, the optimizer's cardinality estimate against the measured row
// count (q-error). Two invariants gate an emitted report:
//
//   - observation only: a profiled execution returns byte-identical rows
//     and identical simulated charges to the unprofiled execution of the
//     same plan on the same scheme;
//   - bounded overhead: the summed host time of the profiled runs (min of
//     repetitions per cell, so scheduler noise cancels) must stay within a
//     small factor of the unprofiled runs — CI fails above 1.10.

// ProfileOptions configures the profile experiment.
type ProfileOptions struct {
	// Queries sizes the generated BGP workload added to the paper queries.
	// Default 6.
	Queries int
	// Seed feeds the workload generator.
	Seed int64
	// Mode is the Section 2.3 run protocol; Hot (the default here) keeps
	// the buffer pool warm so host-overhead ratios measure the profiler,
	// not the simulated device.
	Mode Mode
}

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.Queries <= 0 {
		o.Queries = 6
	}
	return o
}

// ProfileOp is one operator's estimate-vs-actual row.
type ProfileOp struct {
	Op      string  `json:"op"`
	Note    string  `json:"note,omitempty"`
	Rows    int     `json:"rows"`
	EstRows float64 `json:"estRows"` // < 0: no estimate attached
	// QError is max(est/actual, actual/est) with both sides clamped to at
	// least one row — the planner-quality number, 1 is a perfect estimate.
	QError    float64 `json:"qError"`
	SimCPUMs  float64 `json:"simCpuMs"`
	SimIOMs   float64 `json:"simIoMs"`
	ReadBytes int64   `json:"readBytes"`
	PeakBytes int64   `json:"peakBytes"`
}

// ProfileQueryResult is one (query, system) profiled cell.
type ProfileQueryResult struct {
	Query  string `json:"query"`
	Kind   string `json:"kind"` // "paper" or "bgp"
	System string `json:"system"`
	Rows   int    `json:"rows"`
	// Identical: profiled rows were byte-identical to unprofiled rows.
	// ChargesEqual: the simulated clock advanced identically in both runs.
	Identical    bool `json:"identical"`
	ChargesEqual bool `json:"chargesEqual"`
	// MaxQError is the worst operator q-error in this cell (operators with
	// estimates only).
	MaxQError float64     `json:"maxQError"`
	Ops       []ProfileOp `json:"ops"`
	// Analyze is the rendered EXPLAIN ANALYZE text of the profiled run.
	Analyze string `json:"analyze"`
}

// ProfileReport is the experiment's full result; swanbench serializes it
// as the BENCH_profile artifact.
type ProfileReport struct {
	Triples      int    `json:"triples"`
	Seed         int64  `json:"seed"`
	Mode         string `json:"mode"`
	PaperQueries int    `json:"paperQueries"`
	BGPQueries   int    `json:"bgpQueries"`
	// Identical and ChargesEqual are invariants of an emitted report,
	// aggregated over every cell.
	Identical    bool `json:"identical"`
	ChargesEqual bool `json:"chargesEqual"`
	// OverheadRatio is summed min-host-time of profiled runs over summed
	// min-host-time of unprofiled runs — the CI guard fails above 1.10.
	OverheadRatio float64 `json:"overheadRatio"`
	// MaxQError and MeanQError aggregate estimate quality over all
	// operators that carried an estimate.
	MaxQError  float64              `json:"maxQError"`
	MeanQError float64              `json:"meanQError"`
	Queries    []ProfileQueryResult `json:"queries"`
}

// qError is max(est/actual, actual/est), both sides clamped to >= 1 row so
// empty operators do not divide by zero.
func qError(est float64, rows int) float64 {
	a := float64(rows)
	if a < 1 {
		a = 1
	}
	e := est
	if e < 1 {
		e = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// profileCell measures one (plan, system) cell: repeated unprofiled and
// profiled runs (min host time of each), identity checks, and the
// per-operator rows from the last profiled run.
func profileCell(sys *System, root core.Node, mode Mode,
	est *bgp.Estimator, term func(rdf.ID) string) (ProfileQueryResult, minHost, error) {

	src, ok := sys.DB.(core.PhysicalSource)
	if !ok {
		return ProfileQueryResult{}, minHost{}, fmt.Errorf("bench: %s cannot run compiled plans", sys.Name)
	}
	if mode == Hot {
		sys.Store.DropCaches()
		if _, _, _, err := core.ExecutePlan(src, root, core.ExecOptions{}); err != nil {
			return ProfileQueryResult{}, minHost{}, err
		}
	}
	run := func(profile bool) (*coldRun, error) {
		if mode == Cold {
			sys.Store.DropCaches()
		}
		sys.Store.Clock().Reset()
		host0 := time.Now()
		out, _, tr, err := core.ExecutePlan(src, root, core.ExecOptions{Profile: profile})
		host := time.Since(host0)
		if err != nil {
			return nil, err
		}
		return &coldRun{
			out:  out,
			tr:   tr,
			host: host,
			real: sys.Store.Clock().Real(),
			user: sys.Store.Clock().User(),
		}, nil
	}

	var mh minHost
	var plain, prof *coldRun
	for i := 0; i < MeasuredRuns; i++ {
		p, err := run(false)
		if err != nil {
			return ProfileQueryResult{}, minHost{}, err
		}
		q, err := run(true)
		if err != nil {
			return ProfileQueryResult{}, minHost{}, err
		}
		mh.observe(p.host, q.host)
		plain, prof = p, q
	}

	res := ProfileQueryResult{
		Rows:         prof.out.Len(),
		Identical:    plain.out.W == prof.out.W && fmt.Sprint(plain.out.Data) == fmt.Sprint(prof.out.Data),
		ChargesEqual: plain.real == prof.real && plain.user == prof.user,
	}
	tree := prof.tr.Profile
	if tree == nil {
		return res, mh, fmt.Errorf("bench: profiled run of %s returned no profile", sys.Name)
	}
	tree.AnnotateEstimates(bgp.EstimateCards(root, est))
	res.Analyze = core.FormatAnalyze(tree, term)
	tree.Walk(func(p *core.OpProfile) {
		op := ProfileOp{
			Op:        core.NodeLabel(p.Node, term),
			Note:      p.Note,
			Rows:      p.Rows,
			EstRows:   p.EstRows,
			SimCPUMs:  float64(p.SelfCPU.Microseconds()) / 1e3,
			SimIOMs:   float64(p.SelfIO.Microseconds()) / 1e3,
			ReadBytes: p.SelfIOBytes,
			PeakBytes: p.PeakBytes,
		}
		if p.EstRows >= 0 {
			op.QError = qError(p.EstRows, p.Rows)
			if op.QError > res.MaxQError {
				res.MaxQError = op.QError
			}
		}
		res.Ops = append(res.Ops, op)
	})
	return res, mh, nil
}

// coldRun is one measured execution.
type coldRun struct {
	out  *rel.Rel
	tr   *core.Trace
	host time.Duration
	real time.Duration
	user time.Duration
}

// minHost accumulates the per-cell minimum host times of unprofiled and
// profiled runs — minima, not means, so a descheduled run cannot fail the
// overhead guard.
type minHost struct {
	plain, prof time.Duration
	set         bool
}

func (m *minHost) observe(plain, prof time.Duration) {
	if !m.set || plain < m.plain {
		m.plain = plain
	}
	if !m.set || prof < m.prof {
		m.prof = prof
	}
	m.set = true
}

// RunProfile runs the profile experiment over the given systems (normally
// BGPSystems: both engines × both schemes).
func RunProfile(w *Workload, systems []*System, opt ProfileOptions) (*ProfileReport, error) {
	opt = opt.withDefaults()
	report := &ProfileReport{
		Triples:      w.DS.Graph.Len(),
		Seed:         opt.Seed,
		Mode:         opt.Mode.String(),
		Identical:    true,
		ChargesEqual: true,
	}
	est := w.Estimator()
	term := func(id rdf.ID) string { return w.DS.Graph.Dict.Term(id).String() }

	type job struct {
		name string
		kind string
		root core.Node
	}
	var jobs []job
	for _, q := range core.BenchmarkQueries() {
		p, err := core.PlanFor(q, w.Cat.Consts)
		if err != nil {
			return nil, fmt.Errorf("bench: profile: %v: %w", q, err)
		}
		jobs = append(jobs, job{name: q.String(), kind: "paper", root: p.Root})
		report.PaperQueries++
	}
	for _, q := range genQueries(w,
		bgp.GenConfig{Seed: opt.Seed, OptionalProb: 0.3, RangeProb: 0.3},
		func(q *bgp.Query) bool { return true }, opt.Queries) {
		compiled, err := bgp.Compile(q, w.DS.Graph.Dict, est)
		if err != nil {
			return nil, fmt.Errorf("bench: profile: %q: %w", q.Text(), err)
		}
		jobs = append(jobs, job{name: q.Text(), kind: "bgp", root: compiled.Root})
		report.BGPQueries++
	}

	var sumPlain, sumProf time.Duration
	var qerrs []float64
	for _, j := range jobs {
		for _, sys := range systems {
			cell, mh, err := profileCell(sys, j.root, opt.Mode, est, term)
			if err != nil {
				return nil, fmt.Errorf("bench: profile %s on %s: %w", j.name, sys.Name, err)
			}
			cell.Query, cell.Kind, cell.System = j.name, j.kind, sys.Name
			if !cell.Identical {
				return nil, fmt.Errorf("bench: profile %s on %s: profiled rows differ from unprofiled",
					j.name, sys.Name)
			}
			if !cell.ChargesEqual {
				return nil, fmt.Errorf("bench: profile %s on %s: profiled charges differ from unprofiled",
					j.name, sys.Name)
			}
			sumPlain += mh.plain
			sumProf += mh.prof
			for _, op := range cell.Ops {
				if op.EstRows >= 0 {
					qerrs = append(qerrs, op.QError)
				}
			}
			if cell.MaxQError > report.MaxQError {
				report.MaxQError = cell.MaxQError
			}
			report.Queries = append(report.Queries, cell)
		}
	}
	if sumPlain > 0 {
		report.OverheadRatio = float64(sumProf) / float64(sumPlain)
	}
	if len(qerrs) > 0 {
		var s float64
		for _, q := range qerrs {
			s += q
		}
		report.MeanQError = s / float64(len(qerrs))
	}
	return report, nil
}

// FormatProfile renders the report for the console: the overhead and
// estimate-quality headlines, then the worst-estimated operators.
func FormatProfile(r *ProfileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-operator EXPLAIN ANALYZE, %s runs\n", r.Mode)
	fmt.Fprintf(&b, "%d paper + %d generated queries (seed %d) × %d cells; byte-identical: %v; charges equal: %v\n",
		r.PaperQueries, r.BGPQueries, r.Seed, len(r.Queries), r.Identical, r.ChargesEqual)
	fmt.Fprintf(&b, "profiling host overhead: %.3fx (guard: 1.10); estimate q-error mean %.2f max %.2f\n\n",
		r.OverheadRatio, r.MeanQError, r.MaxQError)

	// Worst-estimated operators across all cells.
	type worst struct {
		q  ProfileQueryResult
		op ProfileOp
	}
	var ws []worst
	for _, q := range r.Queries {
		for _, op := range q.Ops {
			if op.EstRows >= 0 {
				ws = append(ws, worst{q, op})
			}
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].op.QError > ws[j].op.QError })
	if len(ws) > 12 {
		ws = ws[:12]
	}
	fmt.Fprintf(&b, "worst operator estimates (q-error = max(est/actual, actual/est)):\n")
	fmt.Fprintf(&b, "%-9s %-40s %-18s %8s %10s %8s\n",
		"q-error", "query", "system", "rows", "est", "op")
	for _, x := range ws {
		name := x.q.Query
		if len(name) > 40 {
			name = name[:37] + "..."
		}
		op := x.op.Op
		if len(op) > 28 {
			op = op[:25] + "..."
		}
		fmt.Fprintf(&b, "%-9.2f %-40s %-18s %8d %10.1f %s\n",
			x.op.QError, name, x.q.System, x.op.Rows, x.op.EstRows, op)
	}

	// One representative EXPLAIN ANALYZE rendering.
	if len(r.Queries) > 0 {
		q := r.Queries[0]
		fmt.Fprintf(&b, "\nEXPLAIN ANALYZE sample — %s on %s:\n%s", q.Query, q.System, q.Analyze)
	}
	return b.String()
}

// genQueries generates n distinct queries under cfg that keep accepts.
func genQueries(w *Workload, cfg bgp.GenConfig, keep func(*bgp.Query) bool, n int) []*bgp.Query {
	gen := bgp.NewGenerator(w.DS.Graph, cfg)
	out := make([]*bgp.Query, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < n*50; i++ {
		q, _ := gen.Query(i)
		if !keep(q) {
			continue
		}
		canon := bgp.CanonicalText(q.Text())
		if seen[canon] {
			continue
		}
		seen[canon] = true
		out = append(out, q)
	}
	return out
}
