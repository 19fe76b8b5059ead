package bench

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rel"
)

// The golden grid is the charge oracle of the paper experiments: every
// bench.FullGrid cell (7 systems × 12 queries × cold/hot) at a small scale,
// with its simulated real and user time, the store's I/O counters and an
// order-sensitive hash of the result rows, plus the Figure 5 read traces,
// which timestamp every physical read with the running simulated time. The
// files were recorded with the operator-at-a-time executor the repository
// used before streaming became the only one, so they pin the contract that
// a fully drained plan charges exactly what that executor charged, at the
// same points of the I/O timeline. Regenerate (only when the cost model
// changes on purpose) with
//
//	go test ./internal/bench -run TestGoldenGrid -update-golden-grid

var updateGoldenGrid = flag.Bool("update-golden-grid", false, "rewrite testdata/golden_grid.tsv and testdata/golden_fig5.txt")

// goldenGridConfig is the recorded scale: small enough for a unit test,
// large enough that every system answers every query with real I/O.
var goldenGridConfig = datagen.Config{Triples: 20_000, Properties: 40, Interesting: 28, Seed: 1}

// rowsHash is an order-sensitive FNV-64a digest of a result relation.
func rowsHash(r *rel.Rel) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(r.W))
	for _, v := range r.Data {
		put(v)
	}
	return h.Sum64()
}

// goldenGridLines measures the grid and renders one tab-separated line per
// cell: mode, query, system, real ns, user ns, I/O requests, bytes read,
// seeks, page misses, result rows, result hash.
func goldenGridLines(t *testing.T, w *Workload) []string {
	t.Helper()
	systems, err := FullGrid(w)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, mode := range []Mode{Cold, Hot} {
		for _, q := range core.BenchmarkQueries() {
			for _, sys := range systems {
				if !sys.Supports(q) {
					continue
				}
				sys.Store.ResetStats()
				tm, out, err := sys.Measure(q, mode)
				if err != nil {
					t.Fatal(err)
				}
				st := sys.Store.Stats()
				lines = append(lines, fmt.Sprintf("%s\t%v\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%016x",
					mode, q, sys.Name, tm.Real.Nanoseconds(), tm.User.Nanoseconds(),
					st.Requests, st.BytesRead, st.Seeks, st.PageMisses, out.Len(), rowsHash(out)))
			}
		}
	}
	return lines
}

// goldenCompare checks got line by line against the golden file at path,
// or rewrites the file under -update-golden-grid. The file's first line is
// a header comment.
func goldenCompare(t *testing.T, path, header string, got []string) {
	t.Helper()
	if *updateGoldenGrid {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) > 0 {
		want = want[1:]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d lines, golden file has %d", path, len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("%s line %d differs:\n got  %s\n want %s", path, i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines differ from %s", bad, len(got), path)
	}
}

// TestGoldenGrid compares every paper-grid cell and the Figure 5 read
// traces exactly against the recorded charges and result hashes.
func TestGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the full grid")
	}
	w, err := NewWorkload(goldenGridConfig)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "testdata/golden_grid.tsv",
		"# mode\tquery\tsystem\treal_ns\tuser_ns\trequests\tbytes_read\tseeks\tpage_misses\trows\trows_fnv64a",
		goldenGridLines(t, w))
	series, err := Fig5(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "testdata/golden_fig5.txt", "# swanbench fig5 output at the golden-grid scale",
		strings.Split(strings.TrimRight(FormatFig5(series), "\n"), "\n"))
}
