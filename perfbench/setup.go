package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/ingest"
	"blackswan/internal/rdf"
	"blackswan/internal/rowstore"
	"blackswan/internal/serve"
	"blackswan/internal/simio"
	"blackswan/internal/trace"
)

// env is one set-up system: the generated data set ingested from its
// N-Triples form, the seven paper-grid systems, the four served schemes
// behind a serve.Service with its write path, and a loopback HTTP server.
type env struct {
	tr      *tracer
	w       *bench.Workload
	grid    []*bench.System
	svc     *serve.Service
	mut     *serve.Mutator
	srv     *http.Server
	served  chan struct{}
	mirror  *mirror
	base    string
	client  *http.Client
	triples int

	generate, build time.Duration
	loadTPS         float64

	// builds records every ingest.BuildSchemes duration after set-up (the
	// compaction rebuilds); updateReq is the request ID of the commit in
	// flight, so a traced rebuild nests under it.
	buildMu   sync.Mutex
	builds    []time.Duration
	updateReq struct{ req, parent uint64 }
}

// servedNames are the serving targets, in bench.BGPSystems order.
var servedNames = []string{"DBX triple PSO", "DBX vert SO", "MonetDB triple PSO", "MonetDB vert SO"}

// engineLayer names the engine module behind a system or target name.
func engineLayer(name string) string {
	if len(name) >= 3 && name[:3] == "DBX" {
		return "rowstore"
	}
	return "colstore"
}

// serveConfig is swanserve's default service configuration; its logger
// formats at info level into io.Discard.
func serveConfig() serve.Config {
	return serve.Config{
		MaxConcurrent: runtime.GOMAXPROCS(0),
		ExecWorkers:   1,
		CacheSize:     serve.DefaultCacheSize,
		SlowLogSize:   serve.DefaultSlowLogSize,
		Tracer:        trace.New(trace.Config{SampleRate: 1.0, RingSize: trace.DefaultRingSize, Service: "swanserve"}),
		Logger:        slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// compactEvery is swanserve's default -compact-every.
const compactEvery = 50

// buildServed loads g into the four served schemes through the bulk-ingest
// build stage, on machine B scaled to the base data set, as swanserve's
// compaction does.
func buildServed(g *rdf.Graph, cat core.Catalog, baseTriples int) ([]serve.Target, error) {
	m := simio.MachineB().ScaleSeek(float64(baseTriples) / bench.BartonTriples)
	store := func() *simio.Store { return simio.NewStore(simio.Config{Machine: m, PoolBytes: 8 << 30}) }
	sch, err := ingest.BuildSchemes(g, cat, ingest.Engines{
		RowTriple: rowstore.NewEngine(store()),
		RowVert:   rowstore.NewEngine(store()),
		ColTriple: colstore.NewEngine(store()),
		ColVert:   colstore.NewEngine(store()),
	}, ingest.BuildOptions{Cluster: rdf.PSO, Secondaries: rdf.AllOrders()})
	if err != nil {
		return nil, fmt.Errorf("build served schemes: %w", err)
	}
	return []serve.Target{
		{Name: servedNames[0], Src: sch.RowTriple},
		{Name: servedNames[1], Src: sch.RowVert},
		{Name: servedNames[2], Src: sch.ColTriple},
		{Name: servedNames[3], Src: sch.ColVert},
	}, nil
}

// rebuild is the mutator's compaction callback.
func (e *env) rebuild(g *rdf.Graph, cat core.Catalog) (*bgp.Estimator, []serve.Target, error) {
	e.buildMu.Lock()
	req, parent := e.updateReq.req, e.updateReq.parent
	e.buildMu.Unlock()
	sp := e.tr.start(req, parent, "ingest.BuildSchemes", "ingest")
	t0 := time.Now()
	targets, err := buildServed(g, cat, e.triples)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	es := e.tr.start(req, parent, "bgp.NewEstimator", "bgp")
	est := bgp.NewEstimator(g, cat.Interesting)
	es.end()
	e.buildMu.Lock()
	e.builds = append(e.builds, d)
	e.buildMu.Unlock()
	return est, targets, nil
}

// setup builds one env. The timed part — returned as the set-up time — is
// generation, ingest, the scheme builds, service start and warm-up; making
// the query inputs (when *in is nil) and checking that ingest kept every
// triple are not timed.
func setup(cfg *config, tr *tracer, in **inputs) (*env, time.Duration, error) {
	e := &env{tr: tr}
	req := tr.newID()
	root := tr.start(req, 0, "setup", "bench")
	defer root.end()
	t0 := time.Now()

	sp := tr.start(req, root.id(), "datagen.Generate", "datagen")
	ds, err := datagen.Generate(datagen.Config{
		Triples: cfg.triples, Properties: cfg.props, Interesting: cfg.interesting, Seed: cfg.dataSeed(),
	})
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("generate: %w", err)
	}
	e.generate = time.Since(t0)

	var nt bytes.Buffer
	sp = tr.start(req, root.id(), "rdf.WriteNTriples", "ingest")
	err = rdf.WriteNTriples(&nt, ds.Graph)
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: %w", err)
	}
	sp = tr.start(req, root.id(), "ingest.Load", "ingest")
	g, st, err := ingest.Load(bytes.NewReader(nt.Bytes()), ingest.Options{Deterministic: true})
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: %w", err)
	}
	e.loadTPS = st.TriplesPerSec()
	generated := ds.Graph.Len()
	// The loaded graph numbers its terms in file order, so the vocabulary,
	// roster and interesting list are derived from it by lexical form.
	e.w, err = bench.WorkloadFromGraph(g)
	if err != nil {
		return nil, 0, fmt.Errorf("workload: %w", err)
	}
	e.triples = g.Len()
	cat := e.w.Cat

	sp = tr.start(req, root.id(), "bench.FullGrid", "core")
	e.grid, err = bench.FullGrid(e.w)
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("paper grid: %w", err)
	}
	sp = tr.start(req, root.id(), "ingest.BuildSchemes", "ingest")
	tb := time.Now()
	targets, err := buildServed(g, cat, e.triples)
	e.build = time.Since(tb)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.start(req, root.id(), "bgp.NewEstimator", "bgp")
	est := e.w.Estimator()
	sp.end()
	sp = tr.start(req, root.id(), "serve.New", "serve")
	e.svc, err = serve.New(g.Dict, est, serveConfig(), targets...)
	if err == nil {
		e.mut, err = serve.NewMutator(e.svc, serve.MutatorConfig{
			Graph: g, Cat: cat, Est: est, Targets: targets,
			CompactEvery: compactEvery, Rebuild: e.rebuild,
		})
	}
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("service: %w", err)
	}
	if err := e.listen(); err != nil {
		return nil, 0, err
	}
	timed := time.Since(t0)

	// Inputs come from the seed and the generated data; they are the
	// client's, so making them is not set-up time. Every set-up of a run
	// generates the same data, so the first set-up's inputs serve all.
	if *in == nil {
		if generated != e.triples {
			e.close()
			return nil, 0, fmt.Errorf("ingest: loaded %d triples, generated %d", e.triples, generated)
		}
		if *in, err = makeInputs(cfg, e); err != nil {
			e.close()
			return nil, 0, err
		}
	}

	t1 := time.Now()
	if err := e.warm(*in, req, root.id()); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, timed + time.Since(t1), nil
}

// listen starts the loopback HTTP front-end: serve.NewHandler, or in the
// traced run the benchmark's mirror of it.
func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = serve.NewHandler(e.svc)
	if e.tr != nil {
		e.mirror = newMirror(e, h)
		h = e.mirror
	}
	e.srv = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	e.base = "http://" + ln.Addr().String()
	// One connection per client; the load never uses more than nproc.
	n := runtime.NumCPU()
	e.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true},
	}
	return nil
}

// warm prepares the hot set and sends one request per served scheme, so
// the plan cache, the connections and the buffer pools are filled before
// anything is timed.
func (e *env) warm(in *inputs, req, parent uint64) error {
	sp := e.tr.start(req, parent, "warm-up", "bench")
	defer sp.end()
	for _, text := range in.hot {
		if _, err := e.svc.Prepare(text); err != nil {
			return fmt.Errorf("warm-up prepare: %w", err)
		}
	}
	for i, sys := range servedNames {
		if r := e.query(context.Background(), req, sp.id(), in.hot[i%len(in.hot)], sys, false); r.err != nil {
			return fmt.Errorf("warm-up query: %w", r.err)
		}
	}
	return nil
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

// inputs are the client's generated requests: a hot query set with Zipf
// popularity, a pool of one-off tail queries, and the write path's
// properties and subjects.
type inputs struct {
	hot  []string
	tail []string
	// weight is each hot query's Zipf popularity; the weights sum to one.
	weight []float64
	// writeProps are the data set's own properties the writer touches;
	// subjects are the data set's own subjects it attaches triples to.
	writeProps []string
	subjects   []string
}

const (
	hotQueries = 200
	zipfS      = 0.4
	tailPool   = 1200
)

// genConfig is the served query mix: the generator's defaults except that
// no pattern leaves its property unbound. Unbound-property stars cost tens
// of times a typical query, so with them a run's read tail would hinge on
// the one or two such queries its seed happens to make popular; the paper
// grid's star queries (q2*, q3*, ...) already measure that fan-out.
func genConfig(seed int64) bgp.GenConfig {
	return bgp.GenConfig{Seed: seed, UnboundPropProb: -1}
}

// distinctQueries generates up to n queries whose canonical texts are not
// in seen yet, adding them to seen.
func distinctQueries(g *rdf.Graph, seed int64, n int, seen map[string]bool) []string {
	gen := bgp.NewGenerator(g, genConfig(seed))
	var out []string
	for i := 0; len(out) < n && i < 10*n; i++ {
		q, _ := gen.Query(i)
		text := q.Text()
		if c := bgp.CanonicalText(text); !seen[c] {
			seen[c] = true
			out = append(out, text)
		}
	}
	return out
}

func makeInputs(cfg *config, e *env) (*inputs, error) {
	seed := cfg.dataSeed()
	seen := make(map[string]bool)
	in := &inputs{
		hot:  distinctQueries(e.w.DS.Graph, cfg.mixSeed(), hotQueries, seen),
		tail: distinctQueries(e.w.DS.Graph, cfg.mixSeed()^0x7a11, tailPool, seen),
	}
	sum := 0.0
	for k := range in.hot {
		in.weight = append(in.weight, 1/math.Pow(float64(k+1), zipfS))
		sum += in.weight[k]
	}
	for k := range in.weight {
		in.weight[k] /= sum
	}

	// Write properties: two of the data's own properties from the lower
	// middle of the frequency ranking that no paper query binds, so the
	// complete keyspace reads stay small.
	ds := e.w.DS
	v := ds.Vocab
	special := map[rdf.ID]bool{v.Type: true, v.Records: true, v.Origin: true, v.Language: true,
		v.Point: true, v.Encoding: true, v.PointInTime: true}
	rng := rand.New(rand.NewSource(seed ^ 0x3717e))
	var cands []rdf.ID
	for rank, p := range ds.PropsByRank {
		if n := len(ds.PropsByRank); rank >= n/3 && rank < 3*n/4 && !special[p] {
			cands = append(cands, p)
		}
	}
	if len(cands) < 2 || len(in.hot) == 0 {
		return nil, fmt.Errorf("inputs: data set too small (%d write-property candidates, %d hot queries)", len(cands), len(in.hot))
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	dict := ds.Graph.Dict
	for _, p := range cands[:2] {
		in.writeProps = append(in.writeProps, dict.Term(p).String())
	}
	triples := ds.Graph.Triples
	for i := 0; i < 512; i++ {
		in.subjects = append(in.subjects, dict.Term(triples[rng.Intn(len(triples))].S).String())
	}
	return in, nil
}
