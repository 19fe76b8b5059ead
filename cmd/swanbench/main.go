// Command swanbench regenerates every table and figure of the paper's
// evaluation on a synthetic Barton-shaped workload.
//
// Usage:
//
//	swanbench [flags] <experiment>
//
// Experiments:
//
//	table1   data set details
//	fig1     cumulative frequency distributions
//	table2   query-space coverage
//	table4   C-Store repetition on machines A and B (cold/hot, real/user)
//	table5   data read from disk and rows returned per query
//	fig5     I/O read history for q3 and q5
//	table6   full grid, cold runs
//	table7   full grid, hot runs
//	fig6      execution time vs number of aggregated properties
//	fig7      scale-up experiment (property splitting, 222 → 1000)
//	parallel  host-time speedup of the worker-pool execution mode
//	workloads generated random-BGP workload through the query compiler
//	serve     serving-layer throughput/latency benchmark (QPS, p50/p95/p99,
//	          plan-cache hit ratio, cached-vs-cold speedup); -serve-report
//	          writes the JSON report
//	load      bulk-ingest benchmark: sequential loader vs the parallel
//	          pipeline (triples/sec, per-stage breakdown, deterministic
//	          byte-identity and cross-build query equivalence);
//	          -load-report writes the JSON report
//	profile   per-operator EXPLAIN ANALYZE on every scheme: estimate-vs-
//	          actual rows (q-error), simulated charges per operator, and
//	          the profiling host-overhead ratio; -profile-report writes
//	          the JSON report
//	trace     request-tracing overhead: every scheme through the serving
//	          layer, traced (100%% sampling) vs untraced, gated on
//	          byte-identical rows and identical simulated charges;
//	          -trace-report writes the JSON report
//	workload-obs  workload-registry overhead: every scheme through the
//	          serving layer, registry on vs off,
//	          gated on byte-identical rows, identical simulated charges,
//	          per-fingerprint quantiles within the sketch's ε rank bound,
//	          and folded per-operator q-error aggregates;
//	          -workload-obs-report writes the JSON report
//	mutate    live mutation: concurrent INSERT DATA / DELETE DATA writers
//	          and version-tagged readers through the HTTP front-end, the
//	          recorded history checked against snapshot isolation, the
//	          final state byte-compared with a from-scratch rebuild, and a
//	          fault-injection pass proving the checker catches stale
//	          snapshots; -mutate-report writes the JSON report
//	sql       generated SQL for both schemes, with union/join counts
//	gen       write the generated data set as N-Triples to stdout
//	all       every experiment in paper order
//
// Beyond the paper's fixed queries, -bgp '<query>' compiles and runs an
// arbitrary basic-graph-pattern query (see internal/bgp for the syntax) on
// all four storage schemes:
//
//	swanbench -bgp 'SELECT ?s ?t WHERE { ?s <barton/origin> <barton/info:marcorg/DLC> . ?s <barton/records> ?x . ?x <barton/type> ?t }'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/buildinfo"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

func main() {
	var (
		triples     = flag.Int("triples", 1_000_000, "number of triples to generate (Barton is 50,255,599)")
		props       = flag.Int("props", 222, "number of distinct properties")
		interesting = flag.Int("interesting", 28, "size of the interesting-property selection")
		seed        = flag.Int64("seed", 42, "generator seed")
		fig7Max     = flag.Int("fig7-max", 1000, "maximum property count for fig7")
		fig7Steps   = flag.Int("fig7-steps", 9, "measurement points for fig7")
		fig6Steps   = flag.Int("fig6-steps", 8, "measurement points for fig6")
		parallel    = flag.Int("parallel", 0, "worker count for the parallel experiment (defaults to NumCPU); the measured tables always run sequentially so their simulated timings stay deterministic")
		bgpText     = flag.String("bgp", "", "compile and run this BGP query on all four schemes (see internal/bgp for the syntax), instead of an experiment")
		bgpCount    = flag.Int("bgp-count", 12, "number of generated queries for the workloads experiment")
		bgpSeed     = flag.Int64("bgp-seed", 0, "workload-generator seed (defaults to -seed)")
		srvClients  = flag.Int("serve-clients", 4, "closed-loop concurrent clients per scheme for the serve experiment")
		srvOps      = flag.Int("serve-ops", 50, "timed operations per client for the serve experiment")
		srvQueries  = flag.Int("serve-queries", 8, "distinct generated queries for the serve experiment")
		srvCache    = flag.Int("serve-cache", 64, "plan-cache capacity for the serve experiment")
		srvReport   = flag.String("serve-report", "", "write the serve experiment's JSON report to this file")
		loadWorkers = flag.Int("load-workers", 0, "parallel worker count for the load experiment (defaults to NumCPU)")
		loadChunk   = flag.Int("load-chunk", 0, "scan-stage chunk bytes for the load experiment (defaults to 1MiB)")
		loadQuick   = flag.Bool("load-quick", false, "skip the load experiment's scheme-build/query-equivalence phase")
		loadReport  = flag.String("load-report", "", "write the load experiment's JSON report to this file")
		profQueries = flag.Int("profile-queries", 6, "generated BGP queries for the profile experiment")
		profCold    = flag.Bool("profile-cold", false, "run the profile experiment cold instead of hot")
		profReport  = flag.String("profile-report", "", "write the profile experiment's JSON report to this file")
		trcQueries  = flag.Int("trace-queries", 8, "generated BGP queries for the trace experiment")
		trcReps     = flag.Int("trace-reps", 3, "repetitions per cell for the trace experiment (min host time kept)")
		trcReport   = flag.String("trace-report", "", "write the trace experiment's JSON report to this file")
		wobQueries  = flag.Int("workload-obs-queries", 8, "generated BGP queries for the workload-obs experiment")
		wobReps     = flag.Int("workload-obs-reps", 3, "repetitions per cell for the workload-obs experiment (min host time kept)")
		wobReport   = flag.String("workload-obs-report", "", "write the workload-obs experiment's JSON report to this file")
		mutWriters  = flag.Int("mutate-writers", 4, "concurrent writer clients for the mutate experiment")
		mutOps      = flag.Int("mutate-ops", 75, "commits per writer for the mutate experiment")
		mutReaders  = flag.Int("mutate-readers", 4, "concurrent reader clients for the mutate experiment")
		mutReadOps  = flag.Int("mutate-read-ops", 200, "reads per reader for the mutate experiment")
		mutCompact  = flag.Int("mutate-compact", 50, "delta entries that trigger compaction in the mutate experiment (-1 never compacts)")
		mutGuard    = flag.Int("mutate-guard", 12, "generated queries for the mutate experiment's byte-identity guard")
		mutReport   = flag.String("mutate-report", "", "write the mutate experiment's JSON report to this file")
		version     = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: swanbench [flags] <experiment>\nexperiments: table1 fig1 table2 table4 table5 fig5 table6 table7 fig6 fig7 parallel workloads serve load profile trace workload-obs mutate sql gen all\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println("swanbench", buildinfo.Get())
		return
	}
	if *bgpText != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "swanbench: -bgp runs instead of an experiment; drop the experiment argument")
			os.Exit(2)
		}
	} else if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := datagen.Config{Triples: *triples, Properties: *props, Interesting: *interesting, Seed: *seed}

	if flag.Arg(0) == "gen" {
		ds, err := datagen.Generate(cfg)
		fail(err)
		fail(rdf.WriteNTriples(os.Stdout, ds.Graph))
		return
	}

	fmt.Fprintf(os.Stderr, "generating %d triples over %d properties (seed %d)...\n", cfg.Triples, cfg.Properties, cfg.Seed)
	w, err := bench.NewWorkload(cfg)
	fail(err)

	if *bgpText != "" {
		runUserBGP(w, *bgpText)
		return
	}

	run := func(name string) {
		switch name {
		case "table1":
			section("Table 1: data set details")
			fmt.Print(bench.Table1(w))
		case "fig1":
			section("Figure 1: cumulative frequency distributions")
			fmt.Print(bench.FormatFig1(bench.Fig1(w, 20)))
		case "table2":
			section("Table 2: coverage of the query space")
			fmt.Print(bench.Table2(w))
		case "table4":
			section("Table 4: repetition results (C-Store, machines A and B)")
			rows, err := bench.Table4(w)
			fail(err)
			fmt.Print(bench.FormatTable4(rows))
		case "table5":
			section("Table 5: data relevant to a query")
			rows, err := bench.Table5(w)
			fail(err)
			fmt.Print(bench.FormatTable5(rows))
		case "fig5":
			section("Figure 5: I/O read history for q3 and q5")
			series, err := bench.Fig5(w, 20)
			fail(err)
			fmt.Print(bench.FormatFig5(series))
		case "table6":
			section("Table 6: experimental results for cold runs")
			systems, err := bench.FullGrid(w)
			fail(err)
			res, err := bench.RunGrid(systems, bench.Cold)
			fail(err)
			fmt.Print(bench.FormatGrid(res))
		case "table7":
			section("Table 7: experimental results for hot runs")
			systems, err := bench.FullGrid(w)
			fail(err)
			res, err := bench.RunGrid(systems, bench.Hot)
			fail(err)
			fmt.Print(bench.FormatGrid(res))
		case "fig6":
			section("Figure 6: execution time vs number of properties")
			pts, err := bench.Fig6(w, *fig6Steps)
			fail(err)
			fmt.Print(bench.FormatFig6(pts))
		case "fig7":
			section("Figure 7: scalability experiment (property splitting)")
			pts, err := bench.Fig7(w, *fig7Max, *fig7Steps, *seed+1)
			fail(err)
			fmt.Print(bench.FormatFig7(pts))
		case "parallel":
			workers := *parallel
			if workers <= 1 {
				workers = runtime.NumCPU()
			}
			section(fmt.Sprintf("Parallel execution: star queries, %d workers", workers))
			pts, err := bench.ParallelSweep(w, workers)
			fail(err)
			fmt.Print(bench.FormatParallel(pts, workers))
		case "workloads":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			section(fmt.Sprintf("Workloads: %d generated BGP queries (seed %d) through the query compiler", *bgpCount, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			res, err := bench.RunBGPWorkload(w, systems, *bgpCount, wseed, bench.Cold)
			fail(err)
			fmt.Print(bench.FormatBGPWorkload(res, systems, bench.Cold))
		case "serve":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			section(fmt.Sprintf("Serving: %d clients × %d ops over %d queries (seed %d) per scheme", *srvClients, *srvOps, *srvQueries, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			report, err := bench.RunServe(w, systems, bench.ServeOptions{
				Clients: *srvClients, Ops: *srvOps, Queries: *srvQueries,
				Seed: wseed, CacheSize: *srvCache,
			})
			fail(err)
			fmt.Print(bench.FormatServe(report))
			if *srvReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*srvReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "serve report written to %s\n", *srvReport)
			}
		case "load":
			workers := *loadWorkers
			if workers <= 0 {
				workers = runtime.NumCPU()
			}
			section(fmt.Sprintf("Load: bulk ingest, sequential vs %d workers", workers))
			report, err := bench.RunLoad(w, bench.LoadOptions{
				Workers: workers, ChunkBytes: *loadChunk, SkipQueries: *loadQuick,
			})
			fail(err)
			fmt.Print(bench.FormatLoad(report))
			if *loadReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*loadReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "load report written to %s\n", *loadReport)
			}
		case "profile":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			mode := bench.Hot
			if *profCold {
				mode = bench.Cold
			}
			section(fmt.Sprintf("Profile: EXPLAIN ANALYZE on all schemes, %d generated queries (seed %d), %s runs", *profQueries, wseed, mode))
			systems, err := bench.BGPSystems(w)
			fail(err)
			report, err := bench.RunProfile(w, systems, bench.ProfileOptions{
				Queries: *profQueries, Seed: wseed, Mode: mode,
			})
			fail(err)
			fmt.Print(bench.FormatProfile(report))
			if *profReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*profReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "profile report written to %s\n", *profReport)
			}
		case "trace":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			section(fmt.Sprintf("Trace: tracing overhead through the serving layer, %d generated queries (seed %d)", *trcQueries, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			report, err := bench.RunTraceBench(w, systems, bench.TraceBenchOptions{
				Queries: *trcQueries, Seed: wseed, Reps: *trcReps,
			})
			fail(err)
			fmt.Print(bench.FormatTraceBench(report))
			if *trcReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*trcReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "trace report written to %s\n", *trcReport)
			}
		case "workload-obs":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			section(fmt.Sprintf("Workload-obs: registry overhead through the serving layer, %d generated queries (seed %d)", *wobQueries, wseed))
			systems, err := bench.BGPSystems(w)
			fail(err)
			report, err := bench.RunWorkloadObs(w, systems, bench.WorkloadObsOptions{
				Queries: *wobQueries, Seed: wseed, Reps: *wobReps,
			})
			fail(err)
			fmt.Print(bench.FormatWorkloadObs(report))
			if *wobReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*wobReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "workload-obs report written to %s\n", *wobReport)
			}
		case "mutate":
			wseed := *bgpSeed
			if wseed == 0 {
				wseed = *seed
			}
			section(fmt.Sprintf("Mutate: %d writers × %d commits, %d readers × %d reads through HTTP (seed %d)", *mutWriters, *mutOps, *mutReaders, *mutReadOps, wseed))
			report, err := bench.RunMutate(w, bench.MutateOptions{
				Writers: *mutWriters, Ops: *mutOps,
				Readers: *mutReaders, ReadOps: *mutReadOps,
				CompactEvery: *mutCompact, GuardQueries: *mutGuard,
				Seed: wseed,
			})
			fail(err)
			fmt.Print(bench.FormatMutate(report))
			if *mutReport != "" {
				data, err := json.MarshalIndent(report, "", "  ")
				fail(err)
				fail(os.WriteFile(*mutReport, append(data, '\n'), 0o644))
				fmt.Fprintf(os.Stderr, "mutate report written to %s\n", *mutReport)
			}
		case "sql":
			section("Generated SQL (triple-store, then vertically-partitioned)")
			names := make([]string, 0, len(w.Cat.AllProps))
			for _, p := range w.Cat.AllProps {
				names = append(names, fmt.Sprintf("prop_%d", p))
			}
			for _, q := range core.BenchmarkQueries() {
				ts, err := core.TripleSQL(q)
				fail(err)
				fmt.Printf("-- %v (triple-store)\n%s\n\n", q, ts)
				_, st, err := core.VertSQL(q, names)
				fail(err)
				fmt.Printf("-- %v (vertically-partitioned): %d unions, %d joins, %d table refs, %d bytes of SQL\n\n",
					q, st.Unions, st.Joins, st.Tables, st.Bytes)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if flag.Arg(0) == "all" {
		for _, name := range []string{"table1", "fig1", "table2", "table4", "table5", "fig5", "table6", "table7", "fig6", "fig7", "parallel", "workloads", "serve", "load", "profile", "trace", "workload-obs", "mutate"} {
			run(name)
		}
		return
	}
	run(flag.Arg(0))
}

// runUserBGP compiles one user-supplied query, prints the chosen join
// order and estimated cost, runs it on all four schemes (cold and hot),
// and decodes a sample of the result through the dictionary.
func runUserBGP(w *bench.Workload, text string) {
	compiled, err := bgp.CompileText(text, w.DS.Graph.Dict, w.Estimator())
	fail(err)
	section("BGP query")
	fmt.Printf("query:     %s\n", text)
	fmt.Printf("columns:   %s\n", strings.Join(compiled.Cols, ", "))
	fmt.Printf("est. cost: %.0f\n", compiled.Cost)
	for _, step := range compiled.Order {
		fmt.Printf("join:      %s\n", step)
	}
	fmt.Println()

	systems, err := bench.BGPSystems(w)
	fail(err)
	fmt.Printf("%-18s %12s %12s %12s %12s %8s\n",
		"system", "cold real", "cold user", "hot real", "hot user", "rows")
	var sample *rel.Rel
	for _, sys := range systems {
		cold, res, err := sys.MeasurePlan(compiled.Root, bench.Cold)
		fail(err)
		hot, _, err := sys.MeasurePlan(compiled.Root, bench.Hot)
		fail(err)
		if sample == nil {
			sample = res
		} else if !rel.Equal(sample, res) {
			fail(fmt.Errorf("%s returned a different result", sys.Name))
		}
		cr, cu := cold.Seconds()
		hr, hu := hot.Seconds()
		fmt.Printf("%-18s %11.3fs %11.3fs %11.3fs %11.3fs %8d\n",
			sys.Name, cr, cu, hr, hu, res.Len())
	}

	fmt.Printf("\nresult (%d rows", sample.Len())
	show := sample.Len()
	if show > 10 {
		show = 10
		fmt.Printf(", first %d", show)
	}
	fmt.Println("):")
	d := w.DS.Graph.Dict
	for i := 0; i < show; i++ {
		row := sample.Row(i)
		parts := make([]string, len(row))
		for j, v := range row {
			// Aggregate counts are plain numbers, not dictionary ids; an
			// unbound OPTIONAL variable is NULL, not a term.
			switch {
			case compiled.Counts[compiled.Cols[j]]:
				parts[j] = fmt.Sprint(v)
			case rdf.ID(v) == rdf.NoID:
				parts[j] = "NULL"
			default:
				parts[j] = d.Term(rdf.ID(v)).String()
			}
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swanbench:", err)
		os.Exit(1)
	}
}
