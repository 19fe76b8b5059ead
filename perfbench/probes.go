package main

import (
	"context"
	"runtime"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/serve"
)

// Per-layer probes of the traced run: the benchmark's own direct calls into
// bgp and core, made one at a time between phases so nothing else runs.

type bgpProbe struct {
	parse, compile []float64 // microseconds per distinct query
}

// probeBGP times bgp.Parse and bgp.Compile on each distinct text.
func (e *env) probeBGP(texts []string) bgpProbe {
	var p bgpProbe
	dict, est := e.svc.Dict(), e.w.Estimator()
	req := e.tr.newID()
	for _, text := range texts {
		sp := e.tr.start(req, 0, "bgp.Parse", "bgp")
		t0 := time.Now()
		q, err := bgp.Parse(text)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			continue
		}
		p.parse = append(p.parse, us(d))
		sp = e.tr.start(req, 0, "bgp.Compile", "bgp")
		t0 = time.Now()
		_, err = bgp.Compile(q, dict, est)
		d = time.Since(t0)
		sp.end()
		if err == nil {
			p.compile = append(p.compile, us(d))
		}
	}
	return p
}

type coreProbe struct {
	exec                    []float64 // ms
	byEngine                map[string][]float64
	allocKB, allocs, peakKB []float64
	batches                 []float64
}

// probeCore replays served reads through core.ExecutePlanCtx with the
// served options (one worker, streaming), one at a time, reading
// runtime.MemStats around each call.
func (e *env) probeCore(reads []readRec) coreProbe {
	p := coreProbe{byEngine: map[string][]float64{}}
	targets := map[string]serve.Target{}
	for _, t := range e.svc.Targets() {
		targets[t.Name] = t
	}
	opt := core.ExecOptions{Workers: serveConfig().ExecWorkers, Streaming: true}
	req := e.tr.newID()
	var m0, m1 runtime.MemStats
	for _, r := range reads {
		prep, err := e.svc.Prepare(r.text)
		if err != nil {
			continue
		}
		t := targets[r.system]
		runtime.ReadMemStats(&m0)
		sp := e.tr.start(req, 0, "core.ExecutePlanCtx", "core")
		t0 := time.Now()
		_, _, tr, err := core.ExecutePlanCtx(context.Background(), t.Src, prep.Compiled.Root, opt)
		d := time.Since(t0)
		sp.end()
		runtime.ReadMemStats(&m1)
		if err != nil {
			continue
		}
		p.exec = append(p.exec, ms(d))
		l := engineLayer(t.Name)
		p.byEngine[l] = append(p.byEngine[l], ms(d))
		p.allocKB = append(p.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs))
		p.peakKB = append(p.peakKB, float64(tr.PeakBytes)/1024)
		p.batches = append(p.batches, float64(tr.SourceBatches))
	}
	return p
}
