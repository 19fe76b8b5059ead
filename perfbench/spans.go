package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's span recorder. Spans are recorded by the benchmark's
// own code around its calls into each module's public functions; nothing
// inside the program is instrumented. Every span has a name, a layer, a
// start, an end and a parent, and all spans of one request share its
// request ID. Spans stay in memory and are written out when the run ends.
//
// A nil *tracer records nothing, so the untraced run pays one nil check per
// call site.

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are offsets from the run's start.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
}

type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span or request ID.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// live is an open span.
type live struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root) in request req.
func (t *tracer) start(req, parent uint64, name, layer string) *live {
	if t == nil {
		return nil
	}
	return &live{t: t, s: span{ID: t.newID(), Parent: parent, Req: req, Name: name, Layer: layer, Start: time.Since(t.t0)}}
}

// id is the span's ID, 0 for a nil span.
func (l *live) id() uint64 {
	if l == nil {
		return 0
	}
	return l.s.ID
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.s.End = time.Since(l.t.t0)
	l.t.add(l.s)
}

// child records a closed span of known bounds under l — for intervals the
// program reports rather than the benchmark times, such as the admission
// wait inside Service.Exec (Result.Queued).
func (l *live) child(name, layer string, from, to time.Duration) {
	if l == nil {
		return
	}
	l.t.add(span{ID: l.t.newID(), Parent: l.s.ID, Req: l.s.Req, Name: name, Layer: layer,
		Start: l.s.Start + from, End: l.s.Start + to})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.done = append(t.done, s)
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children counted once).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// reconcile compares, over every traced HTTP request (a root span named
// rootName), the client's wall time with the sum of the self times of the
// request's spans that belong to a program layer. The benchmark's own
// handler glue (layer "bench") is the unattributed remainder; the result is
// its share of the client wall time, in percent.
func reconcile(spans []span, rootName string) (unattributedPct float64, requests int) {
	self := selfTimes(spans)
	wall := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			wall[s.Req] = s.End - s.Start
		}
	}
	var total, attributed time.Duration
	for _, w := range wall {
		total += w
	}
	for _, s := range spans {
		if _, ok := wall[s.Req]; ok && s.Layer != "bench" {
			attributed += self[s.ID]
		}
	}
	if total <= 0 {
		return 0, 0
	}
	return 100 * float64(total-attributed) / float64(total), len(wall)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
