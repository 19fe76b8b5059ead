package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/verify"
)

// The serve-write phase: one writer connection commits INSERT DATA /
// DELETE DATA requests through POST /update while one reader connection
// sends the serve-read query mix, both closed loops. Writes attach new
// triples to the data's own subjects under two of its own properties, and
// net inserts outnumber deletes, so the delta grows through several
// compactions. Every sixteenth read is instead a complete read of one write
// property's keyspace; writes and keyspace reads form the history the
// internal/verify snapshot-isolation checker judges. After the phase the
// served state is compared with a from-scratch rebuild.

type commitRec struct {
	latency   time.Duration // client round trip
	server    time.Duration // UpdateResult.Latency
	compacted bool
	err       error
}

type writeResult struct {
	start, end time.Time // the measured phase, for its speed factor
	commits    []commitRec
	reads      []readRec
	keyReads   int
	delta      []float64 // Mutator.Delta() adds+dels at each mix read
	historyOps int
	failures   int
	notes      []string
}

// insertShare is the share of commits that insert; the rest delete one
// live key. Each insert adds one or two triples, so the keyspace grows.
const insertShare = 0.7

// keyspaceEvery makes every keyspaceEvery-th read of the reader a complete
// keyspace read for the history.
const keyspaceEvery = 16

func keyspaceQuery(prop string) string { return "SELECT ?s ?o WHERE { ?s " + prop + " ?o }" }

// keysOf turns a complete keyspace read into its key set: "<s> <o>".
func keysOf(r reply) []string {
	keys := make([]string, 0, len(r.resp.Rows))
	for _, row := range r.resp.Rows {
		if len(row) == 2 && row[0] != nil && row[1] != nil {
			keys = append(keys, *row[0]+" "+*row[1])
		}
	}
	return keys
}

func (e *env) runWrite(st *stream, in *inputs, budget time.Duration, seed int64) *writeResult {
	res := &writeResult{}
	fail := func(format string, args ...any) {
		res.failures++
		if len(res.notes) < 10 {
			res.notes = append(res.notes, fmt.Sprintf(format, args...))
		}
	}
	ctx := context.Background()

	// The history starts at the current version with each property's
	// keyspace as read now, before any writer runs.
	recs := make([]*verify.Recorder, len(in.writeProps))
	live := make([][]string, len(in.writeProps))
	for i, p := range in.writeProps {
		r := e.query(ctx, e.tr.newID(), 0, keyspaceQuery(p), servedNames[0], true)
		if r.err != nil {
			fail("initial keyspace read: %v", r.err)
			return res
		}
		live[i] = keysOf(r)
		recs[i] = verify.NewRecorder(r.resp.Version, live[i])
	}

	// The writer publishes Mutator.Delta() after each commit; the reader
	// samples the latest value, so it never waits on the commit lock.
	var delta atomic.Int64
	res.start = time.Now()
	deadline := res.start.Add(budget)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res.failures and res.notes
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x5717e))
		for j := 0; time.Now().Before(deadline); j++ {
			pi := rng.Intn(len(in.writeProps))
			prop := in.writeProps[pi]
			var put, del []string
			var text string
			if rng.Float64() < insertShare || len(live[pi]) < 2 {
				var b strings.Builder
				b.WriteString("INSERT DATA { ")
				for k := 0; k < 1+rng.Intn(2); k++ {
					s := in.subjects[rng.Intn(len(in.subjects))]
					o := fmt.Sprintf("%q", fmt.Sprintf("w%d-%d-%d", seed, j, k))
					fmt.Fprintf(&b, "%s %s %s . ", s, prop, o)
					put = append(put, s+" "+o)
				}
				b.WriteString("}")
				text = b.String()
			} else {
				k := rng.Intn(len(live[pi]))
				key := live[pi][k]
				sp := strings.IndexByte(key, ' ')
				text = fmt.Sprintf("DELETE DATA { %s %s %s . }", key[:sp], prop, key[sp+1:])
				del = []string{key}
			}
			c := e.update(ctx, e.tr.newID(), 0, text)
			rec := commitRec{latency: c.done.Sub(c.sent), err: c.err}
			if c.err != nil {
				mu.Lock()
				fail("commit: %v", c.err)
				mu.Unlock()
				res.commits = append(res.commits, rec)
				continue
			}
			rec.server, rec.compacted = c.resp.Latency, c.resp.Compacted
			res.commits = append(res.commits, rec)
			adds, dels := e.mut.Delta()
			delta.Store(int64(adds + dels))
			live[pi] = applyKeys(live[pi], put, del)
			for i, r := range recs {
				wt := verify.WriteTxn{Client: "writer", Seq: j, Base: c.resp.BaseVersion, Version: c.resp.Version}
				if i == pi {
					wt.Put, wt.Del = put, del
				}
				r.Write(wt)
			}
		}
	}()
	go func() { // the reader
		defer wg.Done()
		seq := make([]int, len(in.writeProps))
		for j := 0; time.Now().Before(deadline); j++ {
			if j%keyspaceEvery == keyspaceEvery-1 {
				pi := (j / keyspaceEvery) % len(in.writeProps)
				r := e.query(ctx, e.tr.newID(), 0, keyspaceQuery(in.writeProps[pi]), servedNames[j%len(servedNames)], true)
				res.keyReads++
				if r.err != nil {
					mu.Lock()
					fail("keyspace read: %v", r.err)
					mu.Unlock()
					continue
				}
				recs[pi].Read(verify.ReadTxn{Client: "reader", Seq: seq[pi], Version: r.resp.Version,
					Present: keysOf(r), Complete: true})
				seq[pi]++
				continue
			}
			res.delta = append(res.delta, float64(delta.Load()))
			rec := e.read(st, time.Time{})
			if rec.err != nil {
				mu.Lock()
				fail("read beside writes: %v", rec.err)
				mu.Unlock()
			}
			res.reads = append(res.reads, rec)
		}
	}()
	wg.Wait()
	res.end = time.Now()

	for i, r := range recs {
		h := r.History()
		res.historyOps += len(h.Reads)
		if i == 0 {
			res.historyOps += len(h.Writes)
		}
		sp := e.tr.start(e.tr.newID(), 0, "verify.Check", "verify")
		vs := verify.Check(h)
		sp.end()
		for _, v := range vs {
			fail("snapshot isolation: %s", v)
		}
	}
	e.checkFinalState(in, fail)
	return res
}

// applyKeys returns keys with put added and del removed, sorted.
func applyKeys(keys, put, del []string) []string {
	set := make(map[string]bool, len(keys)+len(put))
	for _, k := range keys {
		set[k] = true
	}
	for _, k := range put {
		set[k] = true
	}
	for _, k := range del {
		delete(set, k)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkFinalState materializes the mutated data, rebuilds all four schemes
// from scratch and runs one compiled plan per guard query on both the live
// and the rebuilt tables, byte-comparing per scheme. The served mix binds
// every property, so each guard query's row order is part of the schemes'
// contract.
func (e *env) checkFinalState(in *inputs, fail func(string, ...any)) {
	g2, cat2, err := e.mut.Materialize()
	if err != nil {
		fail("materialize: %v", err)
		return
	}
	rebuilt, err := buildServed(g2, cat2, e.triples)
	if err != nil {
		fail("rebuild: %v", err)
		return
	}
	est2 := bgp.NewEstimator(g2, cat2.Interesting)
	live := make(map[string]core.PhysicalSource)
	for _, t := range e.svc.Targets() {
		live[t.Name] = t.Src
	}
	guard := append([]string(nil), in.hot[:min(16, len(in.hot))]...)
	for _, p := range in.writeProps {
		guard = append(guard, keyspaceQuery(p))
	}
	for _, text := range guard {
		q, err := bgp.Parse(text)
		if err != nil {
			fail("guard parse: %v", err)
			continue
		}
		c, err := bgp.Compile(q, e.svc.Dict(), est2)
		if err != nil {
			fail("guard compile: %v", err)
			continue
		}
		for _, t := range rebuilt {
			want, _, _, err1 := core.ExecutePlan(t.Src, c.Root, core.ExecOptions{})
			got, _, _, err2 := core.ExecutePlan(live[t.Name], c.Root, core.ExecOptions{})
			if err1 != nil || err2 != nil {
				fail("guard %s: %v / %v", t.Name, err1, err2)
				continue
			}
			if !sameResult(want, got, true) {
				fail("final state: %s differs from a from-scratch rebuild on %q (%d vs %d rows)",
					t.Name, text, got.Len(), want.Len())
			}
		}
	}
}
