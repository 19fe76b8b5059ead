package rel

import (
	"testing"
	"testing/quick"
)

func TestAppendRowLen(t *testing.T) {
	r := New(2)
	r.Append(1, 2)
	r.Append(3, 4)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v", got)
	}
}

func TestAppendPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2).Append(1)
}

func TestNewPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

func TestColAndProject(t *testing.T) {
	r := New(3)
	r.Append(1, 2, 3)
	r.Append(4, 5, 6)
	col := r.Col(1)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
	p := r.Project(2, 0)
	if p.W != 2 || p.Len() != 2 {
		t.Fatalf("Project shape: %v", p)
	}
	if row := p.Row(0); row[0] != 3 || row[1] != 1 {
		t.Fatalf("Project row = %v", row)
	}
}

func TestColPanicsOutOfRange(t *testing.T) {
	r := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Col(5)
}

func TestSortAndEqual(t *testing.T) {
	a := New(2)
	a.Append(3, 1)
	a.Append(1, 2)
	a.Append(1, 1)
	b := New(2)
	b.Append(1, 1)
	b.Append(3, 1)
	b.Append(1, 2)
	if !Equal(a, b) {
		t.Fatal("same bags not Equal")
	}
	a.Sort()
	if r0 := a.Row(0); r0[0] != 1 || r0[1] != 1 {
		t.Fatalf("Sort order wrong: %v", r0)
	}
	c := New(2)
	c.Append(1, 1)
	if Equal(a, c) {
		t.Fatal("different lengths Equal")
	}
	d := New(1)
	if Equal(a, d) {
		t.Fatal("different widths Equal")
	}
	// Bag semantics: duplicate multiplicity matters.
	e := New(2)
	e.Append(1, 1)
	e.Append(1, 1)
	e.Append(3, 1)
	if Equal(a, e) {
		t.Fatal("different multiplicities Equal")
	}
}

func TestEqualProperty(t *testing.T) {
	f := func(rows [][2]uint64) bool {
		a := New(2)
		for _, row := range rows {
			a.Append(row[0], row[1])
		}
		// b is a rotated copy — same bag.
		b := New(2)
		for i := range rows {
			row := rows[(i+1)%len(rows)]
			b.Append(row[0], row[1])
		}
		if len(rows) == 0 {
			return Equal(a, b)
		}
		return Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewCapAndString(t *testing.T) {
	r := NewCap(2, 100)
	if r.Len() != 0 {
		t.Fatal("NewCap not empty")
	}
	r.Append(1, 2)
	if s := r.String(); s == "" {
		t.Fatal("empty String")
	}
}
