package colstore

// SelectEq returns the positions where c equals v, as a sorted position
// list. On a sorted column it binary-searches and touches only the
// qualifying byte range; otherwise it scans the whole column.
func (e *Engine) SelectEq(c *Column, v uint64) []int32 {
	e.node()
	if c.Sorted {
		lo, hi := c.bounds(v)
		e.Store.ChargeCPU(e.Costs.BinarySearch)
		c.touch(lo, hi)
		out := make([]int32, 0, hi-lo)
		for p := lo; p < hi; p++ {
			out = append(out, int32(p))
		}
		e.Store.ChargeCPU(int64(hi-lo) * e.Costs.SelectValue)
		return out
	}
	c.touchAll()
	e.Store.ChargeCPU(int64(len(c.vals)) * e.Costs.SelectValue)
	var out []int32
	for i, x := range c.vals {
		if x == v {
			out = append(out, int32(i))
		}
	}
	return out
}

// SelectRange returns positions of the sorted-column run [v's lower bound,
// upper bound), without materializing values — used to locate clustering
// ranges.
func (e *Engine) SelectRange(c *Column, v uint64) (int, int) {
	e.node()
	e.Store.ChargeCPU(e.Costs.BinarySearch)
	return c.bounds(v)
}

// SelectEqAt refines a candidate list: positions in cand where c equals v.
func (e *Engine) SelectEqAt(c *Column, v uint64, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return x == v })
}

// SelectNeAt keeps candidate positions where c differs from v.
func (e *Engine) SelectNeAt(c *Column, v uint64, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return x != v })
}

// SelectInAt keeps candidate positions whose value is in set.
func (e *Engine) SelectInAt(c *Column, set map[uint64]bool, cand []int32) []int32 {
	return e.selectAt(c, cand, func(x uint64) bool { return set[x] })
}

func (e *Engine) selectAt(c *Column, cand []int32, pred func(uint64) bool) []int32 {
	e.node()
	if len(cand) == 0 {
		return nil
	}
	c.touch(int(cand[0]), int(cand[len(cand)-1])+1)
	e.Store.ChargeCPU(int64(len(cand)) * e.Costs.SelectValue)
	var out []int32
	for _, p := range cand {
		c.check(p)
		if pred(c.vals[p]) {
			out = append(out, p)
		}
	}
	return out
}

// Fetch materializes the values of c at the given (sorted) positions.
func (e *Engine) Fetch(c *Column, pos []int32) []uint64 {
	e.node()
	if len(pos) == 0 {
		return nil
	}
	c.touch(int(pos[0]), int(pos[len(pos)-1])+1)
	e.Store.ChargeCPU(int64(len(pos)) * e.Costs.FetchValue)
	out := make([]uint64, len(pos))
	for i, p := range pos {
		c.check(p)
		out[i] = c.vals[p]
	}
	return out
}

// FetchAll materializes the whole column.
func (e *Engine) FetchAll(c *Column) []uint64 {
	e.node()
	c.touchAll()
	e.Store.ChargeCPU(int64(len(c.vals)) * e.Costs.FetchValue)
	out := make([]uint64, len(c.vals))
	copy(out, c.vals)
	return out
}

// Gather applies a position list to a position list: out[i] = base[idx[i]].
// It is the positional composition at the heart of late materialization.
func (e *Engine) Gather(base, idx []int32) []int32 {
	e.node()
	e.Store.ChargeCPU(int64(len(idx)) * e.Costs.FetchValue)
	out := make([]int32, len(idx))
	for i, p := range idx {
		out[i] = base[p]
	}
	return out
}

// GatherVals applies a position list to a value vector.
func (e *Engine) GatherVals(base []uint64, idx []int32) []uint64 {
	e.node()
	e.Store.ChargeCPU(int64(len(idx)) * e.Costs.FetchValue)
	out := make([]uint64, len(idx))
	for i, p := range idx {
		out[i] = base[p]
	}
	return out
}
