package main

import (
	"fmt"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/core"
	"blackswan/internal/rel"
)

// The paper-grid phase: the 12 paper queries on all seven bench.FullGrid
// systems, cold then hot, one sequential bench.System.Measure call per
// cell, repeated while the phase's time lasts. The oracle: every system
// agrees with the others on every cell's result, and every pass repeats
// the first pass's simulated charges exactly.

// cell is one measured (mode, query, system) reading on the simulated
// clock and device.
type cell struct {
	real, user, io float64 // simulated seconds
	st             simioCounts
}

type simioCounts struct {
	bytesRead, requests, seeks, pageMisses int64
}

type gridResult struct {
	passes   int
	walls    []float64      // host seconds per pass
	spans    [][2]time.Time // start and end of each pass
	cellHost [][]float64    // host seconds per cell, one slice per cell over the passes
	cold     []float64      // simulated real seconds per Table 6 cell
	hot      []float64      // ... per Table 7 cell
	simio    simioCounts
	simCPU   float64
	simIO    float64
	attempts int
	failures int
	notes    []string
}

// runGrid measures passes while budget lasts: at least one, and another
// only if the time left fits most of a pass.
func (e *env) runGrid(budget time.Duration) *gridResult {
	res := &gridResult{}
	var first []cell
	deadline := time.Now().Add(budget)
	for wall := time.Duration(0); res.passes == 0 || time.Until(deadline) > wall*3/4; {
		var cells []cell
		var hosts []float64
		t0 := time.Now()
		cells, hosts, wall = e.gridPass(res)
		res.spans = append(res.spans, [2]time.Time{t0, time.Now()})
		if res.cellHost == nil {
			res.cellHost = make([][]float64, len(hosts))
		}
		for i, h := range hosts {
			res.cellHost[i] = append(res.cellHost[i], h)
		}
		res.passes++
		res.walls = append(res.walls, wall.Seconds())
		if first == nil {
			first = cells
			continue
		}
		for i := range cells {
			if cells[i] != first[i] {
				res.failures++
				res.notes = append(res.notes, fmt.Sprintf("grid pass %d: cell %d simulated charges differ from pass 1", res.passes, i))
			}
		}
	}
	for _, c := range first {
		res.simio.bytesRead += c.st.bytesRead
		res.simio.requests += c.st.requests
		res.simio.seeks += c.st.seeks
		res.simio.pageMisses += c.st.pageMisses
		res.simCPU += c.user
		res.simIO += c.io
	}
	return res
}

// gridPass measures every cell once, cold then hot, and returns the cells
// in a fixed order with each cell's host time and the pass's wall time. Cross-system result
// disagreements are counted into res.
func (e *env) gridPass(res *gridResult) ([]cell, []float64, time.Duration) {
	var cells []cell
	var hosts []float64
	req := e.tr.newID()
	root := e.tr.start(req, 0, "grid.pass", "bench")
	t0 := time.Now()
	for _, mode := range []bench.Mode{bench.Cold, bench.Hot} {
		for _, q := range core.BenchmarkQueries() {
			var ref *rel.Rel
			refName := ""
			for _, sys := range e.grid {
				if !sys.Supports(q) {
					continue
				}
				res.attempts++
				sys.Store.ResetStats()
				sp := e.tr.start(req, root.id(), "bench.Measure", engineLayer(sys.Name))
				tc := time.Now()
				t, out, err := sys.Measure(q, mode)
				hosts = append(hosts, time.Since(tc).Seconds())
				sp.end()
				if err != nil {
					res.failures++
					res.notes = append(res.notes, err.Error())
					continue
				}
				st := sys.Store.Stats()
				c := cell{
					real: t.Real.Seconds(), user: t.User.Seconds(), io: sys.Store.Clock().IO().Seconds(),
					st: simioCounts{st.BytesRead, st.Requests, st.Seeks, st.PageMisses},
				}
				cells = append(cells, c)
				switch {
				case res.passes > 0:
				case mode == bench.Cold:
					res.cold = append(res.cold, c.real)
				default:
					res.hot = append(res.hot, c.real)
				}
				if ref == nil {
					ref, refName = out, sys.Name
				} else if !rel.Equal(ref, out) {
					res.failures++
					res.notes = append(res.notes, fmt.Sprintf("grid %s %v: %s (%d rows) disagrees with %s (%d rows)",
						mode, q, sys.Name, out.Len(), refName, ref.Len()))
				}
			}
		}
	}
	wall := time.Since(t0)
	root.end()
	return cells, hosts, wall
}

// hostSeconds is the grid's host time at the reference speed: the sum over
// cells of each cell's median host time across the passes, which a burst of
// CPU contention in one pass does not move, each pass scaled by its speed
// factor. An empty trace gives the time on the host clock.
func (g *gridResult) hostSeconds(sp speedTrace) float64 {
	div := make([]float64, len(g.spans))
	for k, s := range g.spans {
		div[k] = sp.factor(s[0], s[1])
	}
	sum := 0.0
	for _, c := range g.cellHost {
		v := make([]float64, len(c))
		for k, h := range c {
			v[k] = h / div[k]
		}
		sum += median(v)
	}
	return sum
}
