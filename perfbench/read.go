package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rel"
)

// The serve-read phase: generated BGP queries over loopback HTTP, first as
// an open loop at a fixed arrival rate (latency timed from each request's
// scheduled send time), then as a closed loop with one client per CPU
// (capacity).

// stream draws the client's requests: a Zipf-popular hot set that fits
// the plan cache and, every tailEvery-th request, a one-off tail query that
// misses it. Hot queries are interleaved by smooth weighted round-robin, so
// any stretch of requests holds each hot query in its Zipf share to within
// one request: a run's latency quantiles do not hinge on how often random
// draws happened to pick one heavy query. Each query rotates over the four
// schemes on its own occurrences.
type stream struct {
	mu    sync.Mutex
	in    *inputs
	cur   []float64 // smooth weighted round-robin credit per hot query
	uses  []int     // occurrences so far per hot query
	n     int       // requests drawn
	tails int       // tail queries drawn
}

// tailEvery makes every tailEvery-th request a one-off tail query.
const tailEvery = 5

func newStream(in *inputs) *stream {
	return &stream{in: in, cur: make([]float64, len(in.hot)), uses: make([]int, len(in.hot))}
}

// draw returns a query text, whether it is a tail query, and the scheme.
func (s *stream) draw() (string, bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n%tailEvery == 0 {
		// The pool is reused once drawn through; by then the plan cache
		// has long evicted its first queries, so they still miss it.
		text, sys := s.in.tail[s.tails%len(s.in.tail)], servedNames[s.tails%len(servedNames)]
		s.tails++
		return text, true, sys
	}
	best := 0
	for k, w := range s.in.weight {
		s.cur[k] += w
		if s.cur[k] > s.cur[best] {
			best = k
		}
	}
	s.cur[best]-- // the weights sum to one
	sys := servedNames[s.uses[best]%len(servedNames)]
	s.uses[best]++
	return s.in.hot[best], false, sys
}

// readRec is one read as the client recorded it.
type readRec struct {
	text     string
	tail     bool
	system   string
	latency  time.Duration // from the scheduled send (open loop) or the send
	late     time.Duration // send minus schedule (open loop)
	wall     time.Duration // client wall time of the round trip
	done     time.Time
	rowCount int
	srvMs    float64 // the response's latencyMs
	err      error
}

type readResult struct {
	open, closed []readRec
	openStart    time.Time
	openEnd      time.Time
	closedStart  time.Time
	closedWall   time.Duration
	rate         float64
	// cache counters over the phase
	hits, misses int64
}

// sloMs is the read latency limit: a read answered correctly within it
// meets the service-level objective.
const sloMs = 50

// openRate is the open loop's fixed arrival rate in requests per second,
// set well below the closed-loop capacity on 2 CPUs (roughly 700/s at the
// benchmark's scale).
const openRate = 200

func (e *env) runRead(st *stream, budget time.Duration) *readResult {
	res := &readResult{rate: openRate}
	before := e.svc.Stats().Cache
	openBudget := budget * 3 / 5
	res.openStart = time.Now()
	res.open = e.openLoop(st, openRate, openBudget)
	res.openEnd = time.Now()
	res.closedStart = time.Now()
	res.closed, res.closedWall = e.closedLoop(st, budget-openBudget)
	after := e.svc.Stats().Cache
	res.hits, res.misses = after.Hits-before.Hits, after.Misses-before.Misses
	return res
}

// openLoop sends requests at a fixed rate for d from a dispatcher over
// one connection per CPU; a request whose connections are all busy waits,
// and that wait counts into its latency.
func (e *env) openLoop(st *stream, rate float64, d time.Duration) []readRec {
	n := int(rate * d.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks and a
	// backlog shows as lateness rather than as a slower schedule.
	jobs := make(chan job, n)
	recs := make([]readRec, n)
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				recs[j.i] = e.read(st, j.due)
			}
		}()
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return recs
}

// closedLoop runs one client per CPU back to back for d.
func (e *env) closedLoop(st *stream, d time.Duration) ([]readRec, time.Duration) {
	var mu sync.Mutex
	var recs []readRec
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := e.read(st, time.Time{})
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// read draws and sends one request. due is the scheduled send time in the
// open loop, zero in a closed loop.
func (e *env) read(st *stream, due time.Time) readRec {
	text, tail, sys := st.draw()
	req := e.tr.newID()
	r := e.query(context.Background(), req, 0, text, sys, false)
	rec := readRec{text: text, tail: tail, system: sys, wall: r.wall(), done: r.done, err: r.err}
	if due.IsZero() {
		rec.latency = r.wall()
	} else {
		rec.latency = r.done.Sub(due)
		rec.late = r.sent.Sub(due)
	}
	if r.err == nil {
		rec.rowCount = r.resp.RowCount
		rec.srvMs = r.resp.LatencyMs
	}
	return rec
}

// qpsWindow is the closed loop's throughput window: read_qps is the median
// over the loop's whole windows of the correct replies completed in each,
// so a burst of CPU contention in one window does not move it.
const qpsWindow = 250 * time.Millisecond

// windowedQPS returns the median per-window rate of the replies ok accepts.
func windowedQPS(recs []readRec, start time.Time, wall time.Duration, ok func(readRec) bool) float64 {
	n := int(wall / qpsWindow)
	if n == 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, r := range recs {
		if i := int(r.done.Sub(start) / qpsWindow); i >= 0 && i < n && ok(r) {
			counts[i]++
		}
	}
	return median(counts) / qpsWindow.Seconds()
}

// oracle checks each distinct query once: the four schemes must agree
// (exactly for ordered queries, as bags otherwise), and the queries in
// sample must also agree with bgp.EvalBGP. It returns the agreed row count
// per query text and the number of mismatches.
func (e *env) oracle(texts []string, sample map[string]bool) (map[string]int, int, []string) {
	dict, est := e.svc.Dict(), e.w.Estimator()
	targets := e.svc.Targets()
	want := make(map[string]int, len(texts))
	failures := 0
	var notes []string
	var mu sync.Mutex // guards want, failures and notes
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures++
		if len(notes) < 10 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	check := func(text string) {
		q, err := bgp.Parse(text)
		if err != nil {
			fail("oracle parse %q: %v", text, err)
			return
		}
		c, err := bgp.Compile(q, dict, est)
		if err != nil {
			fail("oracle compile %q: %v", text, err)
			return
		}
		ordered := len(q.OrderBy) > 0
		var ref *rel.Rel
		ok := true
		for _, t := range targets {
			out, _, _, err := core.ExecutePlan(t.Src, c.Root, core.ExecOptions{Streaming: true})
			if err != nil {
				fail("oracle %s %q: %v", t.Name, text, err)
				ok = false
				break
			}
			if ref == nil {
				ref = out
			} else if !sameResult(ref, out, ordered) {
				fail("oracle: %s disagrees with %s on %q", t.Name, targets[0].Name, text)
				ok = false
			}
		}
		if !ok {
			return
		}
		if sample[text] {
			src, isTS := targets[0].Src.(core.TripleSource)
			if !isTS {
				fail("oracle: %s is not a triple source", targets[0].Name)
				return
			}
			o, _, err := bgp.EvalBGP(q, src, dict, e.w.Cat.Interesting)
			if err != nil || !sameResult(o, ref, ordered) {
				fail("oracle: bgp.EvalBGP disagrees on %q (err %v)", text, err)
				return
			}
		}
		mu.Lock()
		want[text] = ref.Len()
		mu.Unlock()
	}
	// The checks run after the measured phases, one worker per CPU.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(texts); i = int(next.Add(1)) - 1 {
				check(texts[i])
			}
		}()
	}
	wg.Wait()
	sort.Strings(notes)
	return want, failures, notes
}

func sameResult(a, b *rel.Rel, ordered bool) bool {
	if !ordered {
		return rel.Equal(a, b)
	}
	if a.W != b.W || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}
