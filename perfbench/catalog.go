package main

// The metric catalog: every metric the benchmark reports, with its unit,
// direction, whether it is a deterministic count (exact for a given seed),
// and — for per-layer metrics — the end-to-end metric and workload it is
// expected to move. BENCHMARK.json lists the same names and units; the
// package tests keep the two in step, and `--catalog` prints this table
// (catalog.json is its checked-in copy).

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks values that repeat exactly for a given seed: simulated
	// clock readings and simulated-device counts.
	Exact bool `json:"exact,omitempty"`
	// Clock says which clock a time is measured on: "host" or "simulated".
	Clock string `json:"clock,omitempty"`
	// Layer is the module a per-layer metric measures; Moves and On name
	// the end-to-end metrics it should move and the workloads they move on.
	Layer string   `json:"layer,omitempty"`
	Moves []string `json:"moves,omitempty"`
	On    []string `json:"on,omitempty"`
	Doc   string   `json:"doc"`
}

// workloadDef is one workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wGrid  = "paper-grid"
	wRead  = "serve-read"
	wWrite = "serve-write"
)

var workloads = []workloadDef{
	{wGrid, "the paper's own Tables 6/7 experiment; all work is on core, the engines and simio, so bgp/serve/http changes must leave its grid metrics unchanged"},
	{wRead, "Zipf hot set plus one-off tail queries over loopback HTTP, so the plan cache, bgp compilation, admission, decoding and encoding all do real work"},
	{wWrite, "net-insert commits on the data's own properties beside reads, so reads merge a growing delta overlay through several compactions"},
}

var allWorkloads = []string{wGrid, wRead, wWrite}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "median over the run's timed set-ups (after two warm-up set-ups) of generate + ingest + scheme builds + service start + warm-up, at the reference host speed"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		Doc: "live heap after set-up, after a forced GC"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001,
		Doc: "1 - failed/attempted; every oracle mismatch and SI violation is a failure (fail_ratio = 1 - ok_ratio)"},
	{Name: "sim_cold_geomean_s", Unit: "sim_s", Better: "lower", Bound: 0.02, Exact: true, Clock: "simulated",
		Doc: "geometric mean of simulated real time over the Table 6 (cold) cells"},
	{Name: "sim_hot_geomean_s", Unit: "sim_s", Better: "lower", Bound: 0.02, Exact: true, Clock: "simulated",
		Doc: "geometric mean of simulated real time over the Table 7 (hot) cells"},
	{Name: "grid_host_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "host time of one whole cold+hot grid at the reference host speed: the sum over cells of each cell's median across the run's passes"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2, Clock: "host",
		Doc: "open-loop read latency from the scheduled send time at the reference host speed, median"},
	{Name: "read_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "open-loop read latency from the scheduled send time at the reference host speed, 90th percentile"},
	{Name: "read_slo_ratio", Unit: "ratio", Better: "higher", Bound: 0.02,
		Doc: "share of attempted open-loop reads answered correctly within the latency limit"},
	{Name: "read_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "host",
		Doc: "closed-loop read capacity with one client per CPU at the reference host speed: the median over 250 ms windows of correct replies per second"},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "client-observed POST /update latency at the reference host speed, median"},
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "client-observed POST /update latency at the reference host speed, 99th percentile (compaction stalls)"},
	{Name: "write_read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "read latency while commits run at the reference host speed, median"},
	{Name: "write_read_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "host",
		Doc: "read latency while commits run at the reference host speed, 90th percentile"},
}

var (
	onRead  = []string{wRead}
	onWrite = []string{wWrite}
	onGrid  = []string{wGrid}
	onAll   = allWorkloads
)

var perLayer = []metricDef{
	{Name: "bgp.parse_us", Unit: "us", Better: "lower", Layer: "bgp", Clock: "host", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "bgp.Parse time per distinct served query, median; cannot move paper-grid"},
	{Name: "bgp.compile_p50_us", Unit: "us", Better: "lower", Layer: "bgp", Clock: "host", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "bgp.Compile time per distinct served query, median"},
	{Name: "bgp.compile_p99_us", Unit: "us", Better: "lower", Layer: "bgp", Clock: "host", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "bgp.Compile time per distinct served query, 99th percentile"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "plan-cache hits over lookups during the read phase (Service.Stats().Cache)"},
	{Name: "serve.prepare_hit_us", Unit: "us", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "timed Service.Prepare on a cached query, median"},
	{Name: "serve.prepare_miss_us", Unit: "us", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p50_ms"}, On: onRead,
		Doc: "timed Service.Prepare on a one-off query, median"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p90_ms", "read_qps"}, On: onRead,
		Doc: "admission wait (Result.Queued), 99th percentile"},
	{Name: "serve.exec_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p90_ms", "read_qps"}, On: onRead,
		Doc: "Result.Latency minus Result.Queued, median"},
	{Name: "serve.exec_p99_ms", Unit: "ms", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p90_ms", "read_qps"}, On: onRead,
		Doc: "Result.Latency minus Result.Queued, 99th percentile"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"read_p50_ms", "write_read_p50_ms"}, On: []string{wRead, wWrite},
		Doc: "Service.DecodeRowsNull time per response, median"},
	{Name: "serve.rows_per_result", Unit: "rows", Better: "lower", Layer: "serve", Moves: []string{"read_p50_ms", "write_read_p50_ms"}, On: []string{wRead, wWrite},
		Doc: "result rows (rowCount) per read, mean"},
	{Name: "http.encode_us", Unit: "us", Better: "lower", Layer: "http", Clock: "host", Moves: []string{"read_p50_ms", "write_read_p50_ms"}, On: []string{wRead, wWrite},
		Doc: "JSON encoding of a serve.QueryResponse plus the body write, median"},
	{Name: "http.response_kb", Unit: "KiB", Better: "lower", Layer: "http", Moves: []string{"read_p50_ms", "write_read_p50_ms"}, On: []string{wRead, wWrite},
		Doc: "response body size, mean"},
	{Name: "http.self_p50_ms", Unit: "ms", Better: "lower", Layer: "http", Clock: "host", Moves: []string{"read_p50_ms", "write_read_p50_ms"}, On: []string{wRead, wWrite},
		Doc: "client wall time minus the response's latencyMs, median"},
	{Name: "core.exec_p50_ms", Unit: "ms", Better: "lower", Layer: "core", Clock: "host", Moves: []string{"read_p90_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "core.ExecutePlanCtx replayed one at a time with the served options, median"},
	{Name: "core.exec_p99_ms", Unit: "ms", Better: "lower", Layer: "core", Clock: "host", Moves: []string{"read_p90_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "core.ExecutePlanCtx replay, 99th percentile"},
	{Name: "core.alloc_kb_per_query", Unit: "KiB", Better: "lower", Layer: "core", Moves: []string{"read_p90_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "runtime.MemStats TotalAlloc delta per replayed query, mean"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: []string{"read_p90_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "runtime.MemStats Mallocs delta per replayed query, mean"},
	{Name: "core.peak_kb", Unit: "KiB", Better: "lower", Layer: "core", Moves: []string{"heap_mb"}, On: onAll,
		Doc: "Trace.PeakBytes per replayed query, mean"},
	{Name: "core.source_batches", Unit: "count", Better: "lower", Layer: "core", Moves: []string{"read_p90_ms"}, On: onRead,
		Doc: "Trace.SourceBatches per replayed query, mean"},
	{Name: "rowstore.exec_p50_ms", Unit: "ms", Better: "lower", Layer: "rowstore", Clock: "host", Moves: []string{"read_p50_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "core replay on the row-engine (DBX) targets, median"},
	{Name: "colstore.exec_p50_ms", Unit: "ms", Better: "lower", Layer: "colstore", Clock: "host", Moves: []string{"read_p50_ms", "grid_host_s"}, On: []string{wRead, wGrid},
		Doc: "core replay on the column-engine (MonetDB) targets, median"},
	{Name: "simio.bytes_read_mb", Unit: "MB", Better: "lower", Layer: "simio", Exact: true, Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simio.Store.Stats().BytesRead summed over one cold+hot grid"},
	{Name: "simio.requests", Unit: "count", Better: "lower", Layer: "simio", Exact: true, Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simio.Store.Stats().Requests summed over one cold+hot grid"},
	{Name: "simio.seeks", Unit: "count", Better: "lower", Layer: "simio", Exact: true, Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simio.Store.Stats().Seeks summed over one cold+hot grid"},
	{Name: "simio.page_misses", Unit: "count", Better: "lower", Layer: "simio", Exact: true, Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simio.Store.Stats().PageMisses summed over one cold+hot grid"},
	{Name: "simio.sim_cpu_s", Unit: "sim_s", Better: "lower", Layer: "simio", Exact: true, Clock: "simulated", Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simulated CPU (Clock.User) summed over the grid's cells"},
	{Name: "simio.sim_io_s", Unit: "sim_s", Better: "lower", Layer: "simio", Exact: true, Clock: "simulated", Moves: []string{"sim_cold_geomean_s", "sim_hot_geomean_s"}, On: onGrid,
		Doc: "simulated I/O (Clock.IO) summed over the grid's cells"},
	{Name: "serve.commit_us", Unit: "us", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"commit_p50_ms"}, On: onWrite,
		Doc: "Mutator.ApplyUpdate latency of non-compacting commits, median"},
	{Name: "serve.compaction_ms", Unit: "ms", Better: "lower", Layer: "serve", Clock: "host", Moves: []string{"commit_p99_ms"}, On: onWrite,
		Doc: "Mutator.ApplyUpdate latency of compacting commits, median"},
	{Name: "serve.compactions", Unit: "count", Better: "higher", Layer: "serve", Moves: []string{"commit_p99_ms"}, On: onWrite,
		Doc: "commits with UpdateResult.Compacted in the write phase"},
	{Name: "core.delta_entries", Unit: "count", Better: "lower", Layer: "core", Moves: []string{"write_read_p50_ms"}, On: onWrite,
		Doc: "Mutator.Delta() adds+dels sampled at each read beside commits, mean"},
	{Name: "datagen.generate_s", Unit: "s", Better: "lower", Layer: "datagen", Clock: "host", Moves: []string{"setup_s"}, On: onAll,
		Doc: "datagen.Generate time, median over timed set-ups"},
	{Name: "ingest.load_triples_per_s", Unit: "1/s", Better: "higher", Layer: "ingest", Clock: "host", Moves: []string{"setup_s"}, On: onAll,
		Doc: "ingest.Load throughput on the serialized data set, median over timed set-ups"},
	{Name: "ingest.build_s", Unit: "s", Better: "lower", Layer: "ingest", Clock: "host", Moves: []string{"setup_s", "commit_p99_ms"}, On: onAll,
		Doc: "ingest.BuildSchemes time for the four served schemes, median over timed set-ups and compactions"},
	{Name: "verify.history_ops", Unit: "count", Better: "higher", Layer: "verify", On: onWrite,
		Doc: "operations in the SI-checked history; a violation is a failure"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Clock: "host",
		Doc: "how late the open-loop generator sent, 99th percentile (reported, not gated)"},
	{Name: "trace.read_p50_ms", Unit: "ms", Better: "lower", Layer: "trace", Clock: "host",
		Doc: "read_p50_ms of the traced run, at the reference host speed; minus the untraced run's read_p50_ms it is the tracing overhead"},
	{Name: "trace.read_p99_ms", Unit: "ms", Better: "lower", Layer: "trace", Clock: "host", Moves: []string{"read_p90_ms"}, On: onRead,
		Doc: "open-loop read latency of the traced run at the reference host speed, 99th percentile; reported, not gated: its run-to-run spread on a shared 2-vCPU host exceeds any usable bound"},
	{Name: "trace.write_read_p99_ms", Unit: "ms", Better: "lower", Layer: "trace", Clock: "host", Moves: []string{"write_read_p90_ms"}, On: onWrite,
		Doc: "read latency beside commits in the traced run at the reference host speed, 99th percentile; reported, not gated"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower", Layer: "trace",
		Doc: "client wall time of traced HTTP requests not covered by a layer's self time; must stay within the reconciliation bound"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace",
		Doc: "spans recorded by the traced run"},
}

// traceLayers are the modules whose self time the traced run reports as
// self.<layer>_s. simio has no host-side spans: its cost is the simulated
// clock, reported as simio.sim_cpu_s and simio.sim_io_s.
var traceLayers = []string{"datagen", "ingest", "bgp", "serve", "http", "core", "rowstore", "colstore", "verify"}

func init() {
	for _, l := range traceLayers {
		perLayer = append(perLayer, metricDef{
			Name: "self." + l + "_s", Unit: "s", Better: "lower", Layer: l, Clock: "host",
			Doc: "self time of the " + l + " layer's spans in the traced run (span duration minus child spans)",
		})
	}
}

// baselineFacts are the measured starting points later changes are
// compared against (2 vCPU, 200k triples, 100 properties, seed 42).
var baselineFacts = []string{
	"plan cache: cached/cold latency ratio is about 1x (0.81-1.28x measured), so compilation is not where serving time goes",
	"serve-read latency per scheme at 200k triples on 2 cores: p50 5-8 ms, p99 24-34 ms",
	"the old mutate experiment's write mix does not compact: its insert/delete pairs cancel, giving 1 compaction in 201 commits",
}

// catalog is the --catalog document.
type catalog struct {
	Workloads     []workloadDef `json:"workloads"`
	EndToEnd      []metricDef   `json:"end_to_end"`
	PerLayer      []metricDef   `json:"per_layer"`
	BaselineFacts []string      `json:"baseline_facts"`
}

func theCatalog() catalog {
	return catalog{Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer, BaselineFacts: baselineFacts}
}
