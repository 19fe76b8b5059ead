package colstore

import "blackswan/internal/rel"

// This file is the column store's side of the executor contract
// (core.PhysicalOps / core.StreamSource). The shared operators in
// internal/core charge through the Relational adapter: each method is
// called once per operator with its total row count and issues the same
// accounting calls as the adapter's vector decomposition of that operator
// (key extraction, then the hash/merge/group primitive, then the
// materialization), because simulated CPU is scaled and rounded per call.
// Bounded scans stream column ranges through ColReader, which issues
// read-ahead-sized I/O requests so batch-at-a-time access does not
// degenerate into page-at-a-time request overhead.

// StreamNode charges one operator dispatch.
func (r Relational) StreamNode() { r.E.node() }

// StreamFilterRows charges n selection tests (one test per row regardless
// of width).
func (r Relational) StreamFilterRows(n, w int) {
	r.E.Store.ChargeCPU(int64(n) * r.E.Costs.SelectValue)
}

// StreamHashBuildRows charges extracting n key values, then n hash inserts.
func (r Relational) StreamHashBuildRows(n, w int) {
	r.E.ChargeFetch(n)
	r.E.Store.ChargeCPU(int64(n) * r.E.Costs.HashBuild)
}

// StreamHashProbeRows charges extracting n key values, then n hash probes.
func (r Relational) StreamHashProbeRows(n, w int) {
	r.E.ChargeFetch(n)
	r.E.Store.ChargeCPU(int64(n) * r.E.Costs.HashProbe)
}

// StreamMergeRows charges extracting both inputs' key vectors, then one
// linear merge over nl+nr values.
func (r Relational) StreamMergeRows(nl, nr int) {
	r.E.ChargeFetch(nl)
	r.E.ChargeFetch(nr)
	r.E.Store.ChargeCPU(int64(nl+nr) * r.E.Costs.SelectValue)
}

// StreamUnionNode charges a binary union as the vector engine runs it: a
// two-part union-all, one operator dispatch per input.
func (r Relational) StreamUnionNode() {
	r.E.node()
	r.E.node()
}

// StreamUnionRows charges moving n rows of width w through a union,
// value at a time.
func (r Relational) StreamUnionRows(n, w int) {
	r.E.Store.ChargeCPU(int64(n) * int64(w) * r.E.Costs.UnionValue)
}

// StreamDistinctRows charges deduplicating n rows: narrow rows use the
// vector engine's fixed-key path, wider rows hash value by value.
func (r Relational) StreamDistinctRows(n, w int) {
	if w <= 3 {
		r.E.Store.ChargeCPU(int64(n) * r.E.Costs.DistinctValue)
		return
	}
	r.E.Store.ChargeCPU(int64(n) * int64(w) * r.E.Costs.DistinctValue)
}

// StreamRestrictRows charges the interesting-properties restriction: the
// vector engine implements it as a set-membership filter (FilterIn).
func (r Relational) StreamRestrictRows(n, w int) {
	r.E.Store.ChargeCPU(int64(n) * r.E.Costs.SelectValue)
}

// StreamGroupRows charges aggregating n rows under keys grouping columns:
// one key-vector extraction per grouping column, then one group-table
// update per key value.
func (r Relational) StreamGroupRows(n, keys int) {
	for k := 0; k < keys; k++ {
		r.E.ChargeFetch(n)
	}
	r.E.Store.ChargeCPU(int64(n) * int64(keys) * r.E.Costs.GroupValue)
}

// StreamJoinEmitRows charges assembling n join output rows of width w,
// one positional fetch per value.
func (r Relational) StreamJoinEmitRows(n, w int) {
	r.E.Store.ChargeCPU(int64(n) * int64(w) * r.E.Costs.FetchValue)
}

// StreamEmitRows charges gathering n finished rows of width w into an
// output buffer.
func (r Relational) StreamEmitRows(n, w int) {
	r.E.Store.ChargeCPU(int64(n) * int64(w) * r.E.Costs.FetchValue)
}

// StreamSortCompares charges n sort comparisons (bounded-heap TopN).
func (r Relational) StreamSortCompares(n int64) {
	r.E.Store.ChargeCPU(n * r.E.Costs.SortValue)
}

// ChargeNode exposes the operator-dispatch charge to streaming scan
// openers assembled outside the package.
func (e *Engine) ChargeNode() { e.node() }

// ChargeSelect charges n selection tests.
func (e *Engine) ChargeSelect(n int) { e.Store.ChargeCPU(int64(n) * e.Costs.SelectValue) }

// ChargeFetch charges n positional fetches.
func (e *Engine) ChargeFetch(n int) { e.Store.ChargeCPU(int64(n) * e.Costs.FetchValue) }

// streamReadAheadBytes is how much of a column one streaming I/O request
// covers. Batch-at-a-time pulls would otherwise issue near-page-sized
// requests and pay per-request overhead hundreds of times where the bulk
// scan pays it once; a read-ahead window keeps streaming request counts
// within a small constant of the bulk read, mirroring the row store's
// 32-leaf index read-ahead. Only scans below a LIMIT stream; drained scans
// read their range in one request.
const streamReadAheadBytes = 256 << 10

// ColReader streams the I/O of one contiguous value range [lo, hi) of a
// column. Ensure extends the requested region monotonically in read-ahead
// windows; a reader that is dropped early simply never requests the tail,
// which is a LIMIT plan's I/O saving.
type ColReader struct {
	c      *Column
	hi     int
	ioNext int
}

// NewColReader positions a reader over values [lo, hi) of c. No I/O happens
// until Ensure.
func (e *Engine) NewColReader(c *Column, lo, hi int) *ColReader {
	n := c.Len()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return &ColReader{c: c, hi: hi, ioNext: lo}
}

// Ensure requests the pages covering values up to index `to` (exclusive),
// extended to a full read-ahead window.
func (r *ColReader) Ensure(to int) {
	if to > r.hi {
		to = r.hi
	}
	if to <= r.ioNext {
		return
	}
	// A window holds the value count whose uncompressed image spans the
	// read-ahead size; at least one value so progress is guaranteed.
	window := streamReadAheadBytes / 8
	next := r.ioNext + window
	if next < to {
		next = to
	}
	if next > r.hi {
		next = r.hi
	}
	r.c.touch(r.ioNext, next)
	r.ioNext = next
}

// EqCond is one equality predicate a streaming column scan applies, in
// order, over its candidate positions.
type EqCond struct {
	C *Column
	V uint64
}

// StreamCol describes one output column of a streaming scan: a real column
// to fetch, or a constant to fill (bound pattern positions cost nothing, as
// in the bulk scan's constant fill). A zero StreamCol emits
// the constant 0 (an un-needed position).
type StreamCol struct {
	C     *Column
	Const uint64
}

// ColScan streams a position range [lo, hi) of a vertical table: per batch
// it applies the equality conditions in order (charging one selection test
// per surviving candidate, as SelectEq/SelectEqAt do) and fetches the
// output columns at the surviving positions (one positional fetch each, as
// Fetch does). I/O flows through per-column ColReaders, so a scan dropped
// early never requests the unread tail.
type ColScan struct {
	e      *Engine
	lo, hi int
	cur    int
	batch  int
	conds  []EqCond
	condRd []*ColReader
	out    []StreamCol
	outRd  []*ColReader
}

// NewColScan opens a streaming scan. All node-startup and binary-search
// charges belong to the caller (they depend on the access path chosen);
// construction itself is free.
func (e *Engine) NewColScan(lo, hi int, conds []EqCond, out []StreamCol, batchRows int) *ColScan {
	if batchRows <= 0 {
		batchRows = 1024
	}
	s := &ColScan{e: e, lo: lo, hi: hi, cur: lo, batch: batchRows, conds: conds, out: out}
	for _, c := range conds {
		s.condRd = append(s.condRd, e.NewColReader(c.C, lo, hi))
	}
	for _, c := range out {
		if c.C != nil {
			s.outRd = append(s.outRd, e.NewColReader(c.C, lo, hi))
		} else {
			s.outRd = append(s.outRd, nil)
		}
	}
	return s
}

// Next returns the next batch of assembled rows, or nil when the range is
// exhausted. Positions are emitted in ascending order, so sorted columns
// keep their ordering property through the scan.
func (s *ColScan) Next() *rel.Rel {
	w := len(s.out)
	out := rel.New(w)
	row := make([]uint64, w)
	for out.Len() == 0 {
		if s.cur >= s.hi {
			return nil
		}
		end := s.cur + s.batch
		if end > s.hi {
			end = s.hi
		}
		// Candidate positions start as the whole batch range and shrink
		// through the conditions in order.
		pos := make([]int32, 0, end-s.cur)
		for p := s.cur; p < end; p++ {
			pos = append(pos, int32(p))
		}
		s.cur = end
		for i, cond := range s.conds {
			if len(pos) == 0 {
				break
			}
			rd := s.condRd[i]
			rd.Ensure(int(pos[len(pos)-1]) + 1)
			s.e.ChargeSelect(len(pos))
			kept := pos[:0]
			for _, p := range pos {
				if cond.C.vals[p] == cond.V {
					kept = append(kept, p)
				}
			}
			pos = kept
		}
		if len(pos) == 0 {
			continue
		}
		for i, c := range s.out {
			if c.C == nil {
				continue
			}
			rd := s.outRd[i]
			rd.Ensure(int(pos[len(pos)-1]) + 1)
			s.e.ChargeFetch(len(pos))
		}
		for _, p := range pos {
			for i, c := range s.out {
				if c.C != nil {
					row[i] = c.C.vals[p]
				} else {
					row[i] = c.Const
				}
			}
			out.Data = append(out.Data, row...)
		}
	}
	return out
}
