// Command perfbench is blackswan's benchmark: three workloads, fourteen
// end-to-end metrics and a traced run with a per-layer breakdown. Run it
// from the repository root through the launcher, which builds it first:
//
//	bash perfbench/run.sh --workload serve-read --seed 3 --seconds 28 --trace 0
//	bash perfbench/run.sh --workload all --seed 3
//
// --trace 0 prints the end-to-end metrics, --trace 1 runs the same inputs
// with spans recorded around every public call the benchmark makes and
// prints the per-layer metrics. --workload all runs every workload both
// ways and prints everything, with the tracing overhead. --held-out maps
// the seed into a seed space never used while tuning. The last line of
// standard output is the JSON result; the report goes to standard error.
// See README.md for the workloads, the metrics and the oracles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	heldOut  bool
	seconds  float64
	trace    bool

	triples, props, interesting int
	setups                      int

	// Test hooks: each injects one fault the oracles must count.
	injectRowCount bool // the first open-loop reply's rowCount is off by one
	injectSI       bool // the mutator installs stale snapshots mid-phase
}

// warmSetups is how many of a run's first set-ups are not timed into
// setup_s: they fault in the heap the later ones reuse, and took about 30%
// longer.
const warmSetups = 2

// heldOutBase offsets held-out seeds far from any seed used while tuning.
const heldOutBase = 1 << 40

// dataSeed is the seed the data set, the request sequence and the write
// mix are made from.
func (c *config) dataSeed() int64 {
	if c.heldOut {
		return heldOutBase + c.seed*7919
	}
	return c.seed
}

// mixSeed is the query generator's seed. The served query mix is part of
// the workload's definition, generated over each seed's data with one fixed
// generator seed, so that runs on different seeds measure the same mix
// rather than different query populations (with per-seed mixes, which few
// queries end up popular moved read latency by a third between seeds). A
// held-out run draws a held-out mix too.
func (c *config) mixSeed() int64 {
	if c.heldOut {
		return c.dataSeed()
	}
	return 42
}

// phaseShares splits a run's measured seconds over the grid, read and write
// phases. Every run measures every phase, so that every run reports every
// metric; a workload's own phase gets the largest share.
var phaseShares = map[string][3]float64{
	wGrid:  {0.4, 0.35, 0.25},
	wRead:  {0.3, 0.45, 0.25},
	wWrite: {0.3, 0.3, 0.4},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	// The data set is swanserve's shape (60 properties, 28 interesting) at
	// 50k triples; seven set-ups, warmSetups of them untimed, give setup_s
	// its median.
	cfg := &config{triples: 50_000, props: 60, interesting: 28, setups: 7}
	fs.StringVar(&cfg.workload, "workload", "", "paper-grid, serve-read, serve-write or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	fs.BoolVar(&cfg.heldOut, "held-out", false, "map --seed into the held-out seed space, never used while tuning")
	fs.Float64Var(&cfg.seconds, "seconds", 28, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	catalogFlag := fs.Bool("catalog", false, "print the metric catalog as JSON and exit")
	child := fs.Bool("idle-poll-child", false, "internal: run as an idle-poll spinner")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		return idlePollChild()
	}
	if *catalogFlag {
		b, _ := json.MarshalIndent(theCatalog(), "", "  ")
		fmt.Println(string(b))
		return 0
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root (BENCHMARK.json not found)")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := phaseShares[cfg.workload]; !ok && cfg.workload != "all" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", cfg.workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	sp, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer sp.stop()
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	res, rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(os.Stderr, rep)
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	return 0
}

// runAll runs every workload untraced and traced and prints every metric,
// then the tracing overhead of each workload's read latency.
func runAll(cfg *config) int {
	total := result{Correct: true, Metrics: map[string]metric{}}
	var overhead []string
	for _, w := range allWorkloads {
		var p50 [2]float64
		for i, traced := range []bool{false, true} {
			c := *cfg
			c.workload, c.trace = w, traced
			res, rep, err := runWorkload(&c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			fmt.Fprint(os.Stderr, rep)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[w+"/"+k] = v
			}
			if traced {
				p50[i] = res.Metrics["trace.read_p50_ms"].Value
			} else {
				p50[i] = res.Metrics["read_p50_ms"].Value
			}
		}
		overhead = append(overhead, fmt.Sprintf("%-12s read_p50_ms untraced %.3f, traced %.3f: tracing overhead %+.3f ms",
			w, p50[0], p50[1], p50[1]-p50[0]))
	}
	fmt.Fprintln(os.Stderr, strings.Join(overhead, "\n"))
	b, _ := json.Marshal(total)
	fmt.Println(string(b))
	return 0
}

// runWorkload performs one run: the set-ups, the three phases and the
// oracles, and returns the result line and a human-readable report.
func runWorkload(cfg *config) (*result, string, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	meter := startSpeedMeter()
	defer meter.stop()
	var in *inputs
	var e *env
	var setupTimes, rawSetups, gens, loads, builds []float64
	var setupSpans [][2]time.Time
	for i := 0; i < max(1, cfg.setups); i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		t0 := time.Now()
		e, d, err = setup(cfg, tr, &in)
		if err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		if i < warmSetups && i < cfg.setups-1 {
			continue
		}
		rawSetups = append(rawSetups, d.Seconds())
		setupSpans = append(setupSpans, [2]time.Time{t0, t0.Add(d)})
		gens = append(gens, e.generate.Seconds())
		loads = append(loads, e.loadTPS)
		builds = append(builds, e.build.Seconds())
	}
	defer e.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	shares := phaseShares[cfg.workload]
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(i int) time.Duration { return time.Duration(shares[i] * float64(total)) }

	grid := e.runGrid(share(0))
	st := newStream(in)
	rd := e.runRead(st, share(1))
	if cfg.injectRowCount && len(rd.open) > 0 {
		rd.open[0].rowCount++
	}

	// The read oracle: every distinct query of the phase, EvalBGP on the
	// eight most popular hot queries and the first two tail queries.
	var texts []string
	seen := map[string]bool{}
	sample := map[string]bool{}
	for _, t := range in.hot[:min(8, len(in.hot))] {
		sample[t] = true
	}
	tails := 0
	for _, recs := range [][]readRec{rd.open, rd.closed} {
		for _, r := range recs {
			if !seen[r.text] {
				seen[r.text] = true
				texts = append(texts, r.text)
				if r.tail && tails < 2 {
					sample[r.text] = true
					tails++
				}
			}
		}
	}
	want, oracleFails, notes := e.oracle(texts, sample)

	var bp bgpProbe
	var cp coreProbe
	if cfg.trace {
		bp = e.probeBGP(texts)
		cp = e.probeCore(every(append(append([]readRec(nil), rd.open...), rd.closed...), 200))
	}
	var mirrorRecs []serverRec
	if e.mirror != nil {
		mirrorRecs = e.mirror.records()
	}

	if cfg.injectSI {
		e.mut.SetFaultEvery(1)
	}
	wr := e.runWrite(st, in, share(2), cfg.dataSeed())

	// Host times are scaled to the reference speed phase by phase.
	sp := meter.snapshot()
	for i, s := range setupSpans {
		setupTimes = append(setupTimes, rawSetups[i]/sp.factor(s[0], s[1]))
	}
	fOpen := sp.factor(rd.openStart, rd.openEnd)
	fClosed := sp.factor(rd.closedStart, rd.closedStart.Add(rd.closedWall))
	fWrite := sp.factor(wr.start, wr.end)

	// Tally attempts and failures.
	attempted := grid.attempts + len(wr.commits) + len(wr.reads) + wr.keyReads
	failed := grid.failures + oracleFails + wr.failures
	notes = append(append(notes, grid.notes...), wr.notes...)
	checkRead := func(r readRec) bool {
		if r.err != nil {
			return false
		}
		n, ok := want[r.text]
		return ok && n == r.rowCount
	}
	var openLat, late, sloOK []float64
	for _, r := range rd.open {
		attempted++
		ok := checkRead(r)
		if !ok {
			failed++
			if len(notes) < 20 {
				notes = append(notes, fmt.Sprintf("read %q on %s: rowCount %d, want %d (err %v)", r.text, r.system, r.rowCount, want[r.text], r.err))
			}
		}
		openLat = append(openLat, ms(r.latency)/fOpen)
		late = append(late, ms(r.late))
		if ok && ms(r.latency) <= sloMs {
			sloOK = append(sloOK, 1)
		}
	}
	for _, r := range rd.closed {
		attempted++
		if !checkRead(r) {
			failed++
		}
	}

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Correct = failed == 0
	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.Name == name {
				res.Metrics[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("perfbench: metric not in the catalog: " + name)
	}

	var commitLat, wrLat []float64
	for _, c := range wr.commits {
		commitLat = append(commitLat, ms(c.latency)/fWrite)
	}
	for _, r := range wr.reads {
		wrLat = append(wrLat, ms(r.latency)/fWrite)
	}

	if !cfg.trace {
		e2e := func(name string, v float64) { put(endToEnd, name, v) }
		e2e("setup_s", median(setupTimes))
		e2e("heap_mb", heapMB)
		e2e("ok_ratio", 1-float64(failed)/float64(max(1, attempted)))
		e2e("sim_cold_geomean_s", geomean(grid.cold))
		e2e("sim_hot_geomean_s", geomean(grid.hot))
		e2e("grid_host_s", grid.hostSeconds(sp))
		e2e("read_p50_ms", quantile(append([]float64(nil), openLat...), 0.5))
		e2e("read_p90_ms", quantile(append([]float64(nil), openLat...), 0.9))
		e2e("read_slo_ratio", float64(len(sloOK))/float64(max(1, len(rd.open))))
		e2e("read_qps", windowedQPS(rd.closed, rd.closedStart, rd.closedWall, checkRead)*fClosed)
		e2e("commit_p50_ms", quantile(append([]float64(nil), commitLat...), 0.5))
		e2e("commit_p99_ms", quantile(append([]float64(nil), commitLat...), 0.99))
		e2e("write_read_p50_ms", quantile(append([]float64(nil), wrLat...), 0.5))
		e2e("write_read_p90_ms", quantile(append([]float64(nil), wrLat...), 0.9))
	} else {
		pl := func(name string, v float64) { put(perLayer, name, v) }
		pl("bgp.parse_us", median(bp.parse))
		pl("bgp.compile_p50_us", quantile(bp.compile, 0.5))
		pl("bgp.compile_p99_us", quantile(bp.compile, 0.99))
		pl("serve.cache_hit_ratio", float64(rd.hits)/float64(max(1, rd.hits+rd.misses)))
		tailText := map[string]bool{}
		for _, t := range in.tail {
			tailText[t] = true
		}
		var prepHit, prepMiss, queued, execMs, decode, rows, encode, respKB []float64
		for _, r := range mirrorRecs {
			if r.all {
				continue // the write phase's keyspace reads are not the served mix
			}
			if tailText[r.text] {
				prepMiss = append(prepMiss, us(r.prepare))
			} else {
				prepHit = append(prepHit, us(r.prepare))
			}
			queued = append(queued, ms(r.queued))
			execMs = append(execMs, ms(r.latency-r.queued))
			decode = append(decode, us(r.decode))
			rows = append(rows, float64(r.rows))
			encode = append(encode, us(r.encode))
			respKB = append(respKB, float64(r.respSize)/1024)
		}
		pl("serve.prepare_hit_us", median(prepHit))
		pl("serve.prepare_miss_us", median(prepMiss))
		pl("serve.queue_wait_p99_ms", quantile(queued, 0.99))
		pl("serve.exec_p50_ms", quantile(execMs, 0.5))
		pl("serve.exec_p99_ms", quantile(execMs, 0.99))
		pl("serve.decode_us", median(decode))
		pl("serve.rows_per_result", mean(rows))
		pl("http.encode_us", median(encode))
		pl("http.response_kb", mean(respKB))
		var self []float64
		for _, recs := range [][]readRec{rd.open, rd.closed, wr.reads} {
			for _, r := range recs {
				if r.err == nil {
					self = append(self, ms(r.wall)-r.srvMs)
				}
			}
		}
		pl("http.self_p50_ms", median(self))
		pl("core.exec_p50_ms", quantile(cp.exec, 0.5))
		pl("core.exec_p99_ms", quantile(cp.exec, 0.99))
		pl("core.alloc_kb_per_query", mean(cp.allocKB))
		pl("core.allocs_per_query", mean(cp.allocs))
		pl("core.peak_kb", mean(cp.peakKB))
		pl("core.source_batches", mean(cp.batches))
		pl("rowstore.exec_p50_ms", median(cp.byEngine["rowstore"]))
		pl("colstore.exec_p50_ms", median(cp.byEngine["colstore"]))
		pl("simio.bytes_read_mb", float64(grid.simio.bytesRead)/1e6)
		pl("simio.requests", float64(grid.simio.requests))
		pl("simio.seeks", float64(grid.simio.seeks))
		pl("simio.page_misses", float64(grid.simio.pageMisses))
		pl("simio.sim_cpu_s", grid.simCPU)
		pl("simio.sim_io_s", grid.simIO)
		var commitUs, compactMs []float64
		for _, c := range wr.commits {
			if c.err != nil {
				continue
			}
			if c.compacted {
				compactMs = append(compactMs, ms(c.server))
			} else {
				commitUs = append(commitUs, us(c.server))
			}
		}
		pl("serve.commit_us", median(commitUs))
		pl("serve.compaction_ms", median(compactMs))
		pl("serve.compactions", float64(len(compactMs)))
		pl("core.delta_entries", mean(wr.delta))
		pl("datagen.generate_s", median(gens))
		pl("ingest.load_triples_per_s", median(loads))
		e.buildMu.Lock()
		for _, b := range e.builds {
			builds = append(builds, b.Seconds())
		}
		e.buildMu.Unlock()
		pl("ingest.build_s", median(builds))
		pl("verify.history_ops", float64(wr.historyOps))
		pl("loadgen.late_p99_ms", quantile(late, 0.99))
		pl("trace.read_p50_ms", quantile(append([]float64(nil), openLat...), 0.5))
		pl("trace.read_p99_ms", quantile(append([]float64(nil), openLat...), 0.99))
		pl("trace.write_read_p99_ms", quantile(append([]float64(nil), wrLat...), 0.99))

		spans := tr.spans()
		pct, nreq := reconcile(spans, "client")
		pl("trace.unattributed_pct", pct)
		pl("trace.spans", float64(len(spans)))
		selfBy := layerSelf(spans)
		for _, l := range traceLayers {
			pl("self."+l+"_s", selfBy[l].Seconds())
		}
		if pct > reconcileBoundPct {
			res.Failed++
			res.Correct = false
			notes = append(notes, fmt.Sprintf("trace: %.2f%% of client wall time over %d requests is not attributed to a layer (bound %.0f%%)",
				pct, nreq, reconcileBoundPct))
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.dataSeed()))
		if err := writeSpans(path, spans); err != nil {
			return nil, "", err
		}
		notes = append(notes, fmt.Sprintf("trace: %d spans written to %s; %.2f%% of client wall time unattributed over %d requests",
			len(spans), path, pct, nreq))
	}
	notes = append(notes, fmt.Sprintf("host speed: %d probes, factor %.3f over the run (grid %.3f, open loop %.3f, closed loop %.3f, writes %.3f); on the host clock grid_host_s %.4f s, setup_s %.4f s",
		len(sp), sp.factor(time.Time{}, time.Now()), sp.factor(grid.spans[0][0], grid.spans[len(grid.spans)-1][1]),
		fOpen, fClosed, fWrite, grid.hostSeconds(nil), median(append([]float64(nil), rawSetups...))))
	notes = append(notes, fmt.Sprintf("set-ups on the host clock: %.3f s", rawSetups))
	return res, report(cfg, res, grid, rd, wr, notes), nil
}

// reconcileBoundPct bounds the share of traced client wall time that no
// layer's span covers.
const reconcileBoundPct = 10.0

// every returns about n records spread evenly over recs, in order.
func every(recs []readRec, n int) []readRec {
	if len(recs) <= n {
		return recs
	}
	out := make([]readRec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, recs[i*len(recs)/n])
	}
	return out
}

func report(cfg *config, res *result, g *gridResult, rd *readResult, wr *writeResult, notes []string) string {
	var b strings.Builder
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "== %s seed %d (%s, %.0fs): %d attempted, %d failed\n",
		cfg.workload, cfg.dataSeed(), mode, cfg.seconds, res.Attempted, res.Failed)
	compactions := 0
	for _, c := range wr.commits {
		if c.compacted {
			compactions++
		}
	}
	fmt.Fprintf(&b, "   grid: %d passes %.3v s; read: %d open-loop at %.0f/s, %d closed-loop, cache %d hits %d misses; write: %d commits (%d compactions), %d reads, %d keyspace reads\n",
		g.passes, g.walls, len(rd.open), rd.rate, len(rd.closed), rd.hits, rd.misses, len(wr.commits), compactions, len(wr.reads), wr.keyReads)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(&b, "   %-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(&b, "   note:", n)
	}
	return b.String()
}
