package rowstore

import (
	"blackswan/internal/btree"
	"blackswan/internal/rel"
)

// This file is the row store's side of the executor contract
// (core.PhysicalOps / core.StreamSource). The operators themselves live
// once in internal/core and are engine-agnostic; what the engine supplies
// is (a) the charges of each operator class under its tuple-at-a-time cost
// model — one accounting call per class, each method called once per
// operator with its total row count — and (b) a pull-based scan whose
// simulated charges replicate ScanEq batch by batch, so early termination
// translates into real saved I/O.

// StreamNode charges one plan-node startup.
func (e *Engine) StreamNode() { e.node() }

// StreamFilterRows charges n residual predicate evaluations.
func (e *Engine) StreamFilterRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.FilterTuple) }

// StreamHashBuildRows charges inserting n tuples into a join hash table.
func (e *Engine) StreamHashBuildRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashBuild) }

// StreamHashProbeRows charges probing n tuples against a hash table.
func (e *Engine) StreamHashProbeRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashProbe) }

// StreamMergeRows charges a merge join over nl left and nr right tuples,
// each advanced once.
func (e *Engine) StreamMergeRows(nl, nr int) { e.Store.ChargeCPU(int64(nl+nr) * e.Costs.MergeTuple) }

// StreamUnionNode charges a binary union's one plan node.
func (e *Engine) StreamUnionNode() { e.node() }

// StreamUnionRows charges moving n tuples through a union.
func (e *Engine) StreamUnionRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.UnionTuple) }

// StreamDistinctRows charges deduplicating n tuples.
func (e *Engine) StreamDistinctRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.DistinctTuple) }

// StreamGroupRows charges aggregating n tuples (the group key count is
// irrelevant in the tuple-at-a-time model).
func (e *Engine) StreamGroupRows(n, keys int) { e.Store.ChargeCPU(int64(n) * e.Costs.GroupTuple) }

// StreamRestrictRows charges the interesting-properties restriction: the
// row engine implements it as a hash semijoin probe (SemiJoinIn).
func (e *Engine) StreamRestrictRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.HashProbe) }

// StreamJoinEmitRows charges assembling n join output rows. Free in the
// row model: a row store hands the already-assembled tuple pair upward, and
// the per-tuple work was charged on the probe.
func (e *Engine) StreamJoinEmitRows(n, w int) {}

// StreamEmitRows charges moving n finished rows into an output buffer
// (TopN's result copy charges the same rate).
func (e *Engine) StreamEmitRows(n, w int) { e.Store.ChargeCPU(int64(n) * e.Costs.ScanTuple) }

// StreamSortCompares charges n sort comparisons (ORDER BY / heap TopN).
func (e *Engine) StreamSortCompares(n int64) { e.Store.ChargeCPU(n * e.Costs.SortTuple) }

// ScanCursor is the pull-based form of ScanEq: same access path, same rows
// in the same order, and the same simulated charges when fully drained —
// but charged batch by batch, so a consumer that stops early pays only for
// the leaves and tuples it actually pulled.
type ScanCursor struct {
	e        *Engine
	t        *Table
	ix       *Index
	cur      *btree.Cursor
	bound    map[int]uint64
	residual bool
	batch    int
	buf      []btree.Key
	done     bool
}

// ScanEqStream opens a streaming equality scan over t. The node-startup
// charge and access-path choice happen here, exactly as in ScanEq; per-tuple
// charges and leaf I/O follow the cursor.
func (e *Engine) ScanEqStream(t *Table, bound map[int]uint64, batchRows int) *ScanCursor {
	e.node()
	ix, plen := pickIndex(t, bound)
	var prefix btree.Key
	for j := 0; j < plen; j++ {
		prefix[j] = bound[ix.Perm[j]]
	}
	if batchRows <= 0 {
		batchRows = 1024
	}
	return &ScanCursor{
		e:        e,
		t:        t,
		ix:       ix,
		cur:      ix.Tree.NewCursor(prefix, plen),
		bound:    bound,
		residual: len(bound) > plen,
		batch:    batchRows,
	}
}

// Next returns the next batch of matching rows in logical column order, or
// nil when the scan is exhausted. Batches hold at most the configured row
// count; residual filtering can make them smaller, never empty.
func (c *ScanCursor) Next() *rel.Rel {
	if c.done {
		return nil
	}
	cst := c.e.Costs
	w := c.ix.Tree.Width()
	out := rel.New(c.t.Width)
	row := make([]uint64, w)
	for out.Len() == 0 {
		c.buf = c.cur.Next(c.buf[:0], c.batch)
		if len(c.buf) == 0 {
			c.done = true
			return nil
		}
		tuples := int64(len(c.buf))
		cost := tuples * cst.ScanTuple
		if c.residual {
			cost += tuples * cst.FilterTuple
		}
		c.e.Store.ChargeCPU(cost)
	keys:
		for _, k := range c.buf {
			for j := 0; j < w; j++ {
				row[c.ix.Perm[j]] = k[j]
			}
			if c.residual {
				for col, v := range c.bound {
					if row[col] != v {
						continue keys
					}
				}
			}
			out.Data = append(out.Data, row...)
		}
	}
	return out
}
