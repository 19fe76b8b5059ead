// Package rel provides the flat tuple representation shared by the two
// engines and the plan executor: a relation is a row-packed []uint64 with a
// fixed width. Scans of both engines and every executor batch are Rel
// values, so the benchmark harness and the result-correctness tests can
// compare engines directly.
package rel

import (
	"fmt"
	"sort"
)

// Rel is a fixed-width relation of uint64 attributes. Row i occupies
// Data[i*W : (i+1)*W]. A Rel with W==0 is invalid except as a zero value.
type Rel struct {
	W    int
	Data []uint64
}

// New returns an empty relation of width w.
func New(w int) *Rel {
	if w < 1 {
		panic(fmt.Sprintf("rel: invalid width %d", w))
	}
	return &Rel{W: w}
}

// NewCap returns an empty relation of width w with capacity for n rows.
func NewCap(w, n int) *Rel {
	r := New(w)
	r.Data = make([]uint64, 0, w*n)
	return r
}

// Len returns the number of rows.
func (r *Rel) Len() int {
	if r.W == 0 {
		return 0
	}
	return len(r.Data) / r.W
}

// Append adds one row, which must have exactly W values.
func (r *Rel) Append(vals ...uint64) {
	if len(vals) != r.W {
		panic(fmt.Sprintf("rel: append %d values to width-%d relation", len(vals), r.W))
	}
	r.Data = append(r.Data, vals...)
}

// Row returns row i as a slice aliasing the underlying storage.
func (r *Rel) Row(i int) []uint64 {
	return r.Data[i*r.W : (i+1)*r.W]
}

// Col extracts column c into a fresh slice.
func (r *Rel) Col(c int) []uint64 {
	if c < 0 || c >= r.W {
		panic(fmt.Sprintf("rel: column %d out of width %d", c, r.W))
	}
	out := make([]uint64, r.Len())
	for i := range out {
		out[i] = r.Data[i*r.W+c]
	}
	return out
}

// Project returns a new relation keeping only the given columns, in order.
func (r *Rel) Project(cols ...int) *Rel {
	out := NewCap(len(cols), r.Len())
	n := r.Len()
	for i := 0; i < n; i++ {
		row := r.Row(i)
		for _, c := range cols {
			out.Data = append(out.Data, row[c])
		}
	}
	return out
}

// Sort orders rows lexicographically in place (all columns significant,
// left to right). Used to canonicalize results for comparison.
func (r *Rel) Sort() {
	n := r.Len()
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]uint64(nil), r.Row(i)...)
	}
	sort.Slice(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
	r.Data = r.Data[:0]
	for _, row := range rows {
		r.Data = append(r.Data, row...)
	}
}

func lessRow(a, b []uint64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// Equal reports whether two relations hold exactly the same bag of rows
// (order-insensitive). It sorts copies; intended for tests and validation.
func Equal(a, b *Rel) bool {
	if a.W != b.W || a.Len() != b.Len() {
		return false
	}
	ca := &Rel{W: a.W, Data: append([]uint64(nil), a.Data...)}
	cb := &Rel{W: b.W, Data: append([]uint64(nil), b.Data...)}
	ca.Sort()
	cb.Sort()
	for i := range ca.Data {
		if ca.Data[i] != cb.Data[i] {
			return false
		}
	}
	return true
}

// String renders a compact preview for debugging.
func (r *Rel) String() string {
	n := r.Len()
	s := fmt.Sprintf("rel(w=%d,n=%d)", r.W, n)
	if n > 6 {
		n = 6
	}
	for i := 0; i < n; i++ {
		s += fmt.Sprintf(" %v", r.Row(i))
	}
	return s
}
