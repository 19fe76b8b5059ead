package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"blackswan/internal/serve"
)

// mirror is the traced run's HTTP front-end. It answers /query and /update
// by calling the same public functions serve.NewHandler calls — TraceStart,
// Prepare and Exec, DecodeRowsNull, JSON encoding of serve.QueryResponse,
// Mutator.ApplyUpdate — with a span around each call, and hands every other
// path to serve.NewHandler. The program itself is not instrumented.
type mirror struct {
	e    *env
	next http.Handler

	mu   sync.Mutex
	recs []serverRec
}

// serverRec is one traced /query as the server saw it.
type serverRec struct {
	text     string
	system   string
	prepare  time.Duration
	queued   time.Duration
	latency  time.Duration
	decode   time.Duration
	encode   time.Duration
	rows     int
	respSize int
	all      bool // an unlimited read (limit < 0)
}

var errUsePost = errors.New("use POST")

func newMirror(e *env, next http.Handler) *mirror { return &mirror{e: e, next: next} }

func (m *mirror) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/query":
		m.query(w, r)
	case "/update":
		m.update(w, r)
	default:
		m.next.ServeHTTP(w, r)
	}
}

func spanIDs(r *http.Request) (req, parent uint64) {
	req, _ = strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	parent, _ = strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	return req, parent
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: err.Error()})
}

func (m *mirror) query(w http.ResponseWriter, r *http.Request) {
	tr, svc := m.e.tr, m.e.svc
	req, parent := spanIDs(r)
	h := tr.start(req, parent, "handler", "bench")
	defer h.end()
	text, system := r.FormValue("q"), r.FormValue("system")
	limit := 100
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		limit = n
	}
	sp := tr.start(req, h.id(), "serve.TraceStart", "serve")
	ctx, trc, end := svc.TraceStart(r.Context(), "query", r.Header.Get("traceparent"))
	sp.end()
	finish := func(err error) {
		sp := tr.start(req, h.id(), "serve.TraceFinish", "serve")
		end(err)
		sp.end()
	}
	traceID := ""
	if trc != nil {
		traceID = trc.ID().String()
	}

	sp = tr.start(req, h.id(), "serve.Prepare", "serve")
	t0 := time.Now()
	p, err := svc.Prepare(text)
	prep := time.Since(t0)
	sp.end()
	if err != nil {
		finish(err)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sp = tr.start(req, h.id(), "serve.Exec", "serve")
	res, err := svc.Exec(ctx, p, system)
	if err == nil {
		// The admission wait and the executor's run are the program's own
		// reported intervals inside Exec.
		sp.child("serve.queue", "serve", 0, res.Queued)
		sp.child("core.execute", "core", res.Queued, res.Latency)
	}
	sp.end()
	finish(err)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	sp = tr.start(req, h.id(), "serve.DecodeRowsNull", "serve")
	t0 = time.Now()
	rows := svc.DecodeRowsNull(res, limit)
	dec := time.Since(t0)
	sp.end()

	sp = tr.start(req, h.id(), "http.encode", "http")
	t0 = time.Now()
	body, err := json.Marshal(serve.QueryResponse{
		System:    res.System,
		Version:   res.Version,
		Columns:   res.Cols,
		Rows:      rows,
		RowCount:  res.Rows.Len(),
		Truncated: len(rows) < res.Rows.Len(),
		Cached:    res.Cached,
		LatencyMs: float64(res.Latency.Microseconds()) / 1e3,
		QueuedMs:  float64(res.Queued.Microseconds()) / 1e3,
		TraceID:   traceID,
	})
	if err == nil {
		w.Header().Set("Content-Type", "application/json")
		_, err = w.Write(append(body, '\n'))
	}
	enc := time.Since(t0)
	sp.end()
	if err != nil {
		return // the client sees a short body and counts the failure
	}
	m.mu.Lock()
	m.recs = append(m.recs, serverRec{
		text: text, system: system, prepare: prep, queued: res.Queued, latency: res.Latency,
		decode: dec, encode: enc, rows: res.Rows.Len(), respSize: len(body) + 1, all: limit < 0,
	})
	m.mu.Unlock()
}

func (m *mirror) update(w http.ResponseWriter, r *http.Request) {
	tr := m.e.tr
	req, parent := spanIDs(r)
	h := tr.start(req, parent, "handler", "bench")
	defer h.end()
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errUsePost)
		return
	}
	text := r.FormValue("u")
	sp := tr.start(req, h.id(), "serve.ApplyUpdate", "serve")
	m.e.buildMu.Lock()
	m.e.updateReq.req, m.e.updateReq.parent = req, sp.id()
	m.e.buildMu.Unlock()
	res, err := m.e.mut.ApplyUpdate(r.Context(), text)
	sp.end()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sp = tr.start(req, h.id(), "http.encode", "http")
	body, err := json.Marshal(serve.UpdateResponse{UpdateResult: *res, LatencyMs: float64(res.Latency.Microseconds()) / 1e3})
	if err == nil {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(body, '\n')) // a failed write shows as a client error
	}
	sp.end()
}

// records returns the traced /query records so far.
func (m *mirror) records() []serverRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]serverRec(nil), m.recs...)
}
