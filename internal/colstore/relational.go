package colstore

import (
	"sort"

	"blackswan/internal/rel"
)

// Relational adapts the vector engine to the row-shaped operator vocabulary
// the core plan executor lowers onto (core.PhysicalOps). The executor's
// operators are engine-agnostic; the adapter supplies what each costs when
// decomposed into the engine's vector primitives — key extraction is a
// positional fetch per value, joins produce position lists that are then
// materialized — so plan-driven execution charges the same per-value cost
// model as the hand-written column-at-a-time query plans it replaced (see
// stream.go for the charge methods).
type Relational struct {
	E *Engine
}

// Charges implements the plan executor's charge-meter contract (see
// core.ChargeMeter): a locked snapshot of the store's simulated CPU and
// I/O nanoseconds plus physical bytes read, for per-operator profiling.
func (r Relational) Charges() (cpuNs, ioNs, bytesRead int64) {
	return r.E.Store.Charges()
}

// TopN sorts x under less (a total order from the plan layer) and keeps the
// first limit rows; limit < 0 keeps all. Charged as an n·⌈log₂n⌉-comparison
// sort over the key columns plus the output materialization.
func (r Relational) TopN(x *rel.Rel, limit int, less func(a, b []uint64) bool) *rel.Rel {
	r.E.node()
	n := x.Len()
	r.E.Store.ChargeCPU(sortCharge(n) * r.E.Costs.SortValue)
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = x.Row(i)
	}
	sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if limit >= 0 && n > limit {
		rows = rows[:limit]
	}
	out := rel.NewCap(x.W, len(rows))
	r.E.Store.ChargeCPU(int64(len(rows)) * int64(x.W) * r.E.Costs.FetchValue)
	for _, row := range rows {
		out.Data = append(out.Data, row...)
	}
	return out
}

// sortCharge approximates the comparison count of sorting n rows: n·⌈log₂n⌉.
func sortCharge(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	lg := int64(0)
	for m := n - 1; m > 0; m >>= 1 {
		lg++
	}
	return int64(n) * lg
}

// FilterIn keeps rows whose col value is in set — the interesting-property
// restriction the column schemes apply to a scan's property column.
func (r Relational) FilterIn(x *rel.Rel, col int, set map[uint64]bool) *rel.Rel {
	r.E.node()
	r.E.Store.ChargeCPU(int64(x.Len()) * r.E.Costs.SelectValue)
	out := rel.New(x.W)
	n := x.Len()
	for i := 0; i < n; i++ {
		row := x.Row(i)
		if set[row[col]] {
			out.Data = append(out.Data, row...)
		}
	}
	return out
}
