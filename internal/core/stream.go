package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the executor: the logical plans of plan.go lowered onto
// pull-based batched iterators. Operators exchange fixed-size row batches,
// pipelines run without materialization barriers (only hash builds,
// grouping, full sorts and shared subexpressions buffer), and TopN/LIMIT
// propagate early termination upstream by closing their inputs — which
// reaches all the way into the physical scans, so a LIMIT-10 plan stops
// paying simulated I/O after ten rows.
//
// The drained-plan charge contract: unless a Limit or a bounded TopN sits
// above it, every scan reads its whole range with the scheme's bulk scan
// (one request per column range), every join drains both inputs, and every
// operator charges its total row counts once, through the engine's
// PhysicalOps, when it finishes. A fully drained plan therefore charges
// exactly what the engines' operator-at-a-time operators charged, and at
// the same points of the I/O timeline: an operator's charges follow its
// inputs' I/O, as they did when each operator ran after its inputs were
// complete (the Figure 5 read traces timestamp every physical read). The
// golden paper grid (internal/bench/testdata) pins this cell by cell. Below
// a LIMIT the executor instead streams scans through read-ahead windows
// (StreamSource), lets joins stop pulling once their output is decided, and
// charges only the work actually done. The bounded-heap TopN charges
// n·ceil(log2 k) comparisons instead of a full sort's n·ceil(log2 n).

// DefaultBatchRows is the batch size when ExecOptions.BatchRows is zero:
// large enough to amortize per-batch dispatch, small enough that a
// pipeline's in-flight state stays a few tens of kilobytes per edge.
const DefaultBatchRows = 1024

// RelIter is the pull contract of a streaming physical scan: Next returns
// the next non-empty batch or nil when exhausted; Close releases the scan
// early (abandoning it is the early-termination protocol — an engine scan
// holds no resources, it simply stops charging).
type RelIter interface {
	Next() (*rel.Rel, error)
	Close()
}

// StreamSource is the optional scheme extension the executor uses below a
// LIMIT: the same rows in the same order as ScanProp/ScanTriples, delivered
// batch by batch so consumers that stop early save the tail's simulated
// I/O. Schemes that do not implement it answer bounded scans with their
// bulk scans.
type StreamSource interface {
	// StreamProp is the pull form of ScanProp (width-2 batches).
	StreamProp(p, s, o rdf.ID, need ScanCols, batchRows int) (RelIter, error)
	// StreamTriples is the pull form of ScanTriples (width-3 batches).
	StreamTriples(s, o rdf.ID, need ScanCols, batchRows int) RelIter
}

// memTracker tracks live intermediate-result bytes. Atomics, not a plain
// counter: the parallel fan-out's prefetch workers allocate batches
// concurrently with the consuming pipeline.
type memTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (m *memTracker) alloc(n int64) {
	if n <= 0 {
		return
	}
	c := m.cur.Add(n)
	for {
		p := m.peak.Load()
		if c <= p || m.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (m *memTracker) free(n int64) {
	if n > 0 {
		m.cur.Add(-n)
	}
}

func (m *memTracker) peakBytes() int64 { return m.peak.Load() }

// current returns the live bytes right now — the profiler samples it at
// operator boundaries for per-node peak attribution.
func (m *memTracker) current() int64 { return m.cur.Load() }

// relBytes is the tracked size of a relation: its row data.
func relBytes(r *rel.Rel) int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.Data)) * 8
}

// ceilLog2 returns ⌈log₂ n⌉ (0 for n < 2).
func ceilLog2(n int) int64 {
	if n < 2 {
		return 0
	}
	lg := int64(0)
	for m := n - 1; m > 0; m >>= 1 {
		lg++
	}
	return lg
}

// sortCompares is the comparison count both engines charge for a full sort
// of n rows: n·⌈log₂ n⌉.
func sortCompares(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return int64(n) * ceilLog2(n)
}

// iter is one operator: next returns the next non-empty batch or nil at
// exhaustion; close terminates early and must propagate upstream. Batches
// are immutable once emitted — consumers copy, never mutate.
type iter interface {
	next() (*rel.Rel, error)
	close()
}

// stream is one pipeline edge: the iterator plus the schema bookkeeping the
// build phase threads — column names, and the column the rows are known to
// ascend on ("" when unordered), the property that licenses merge joins.
type stream struct {
	it     iter
	cols   []string
	sorted string
}

func (s stream) col(name string) (int, error) {
	for i, c := range s.cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q in %v", name, s.cols)
}

// memoRel is a shared subexpression's drained result, re-chunked for each
// consumer.
type memoRel struct {
	rel    *rel.Rel
	cols   []string
	sorted string
}

// executor runs one plan. The counters are atomics because prefetch
// workers update them concurrently with the main pipeline; they fold into
// the Trace once the plan finishes.
type executor struct {
	ctx   context.Context
	src   PhysicalSource
	ops   PhysicalOps
	opt   ExecOptions
	batch int
	tr    *Trace
	memo  map[Node]*memoRel
	req   map[Node]map[string]bool
	uses  map[Node]int
	mem   *memTracker
	// prof is the EXPLAIN ANALYZE collector, nil unless opt.Profile.
	prof *profiler

	srcBatches atomic.Int64
	partScans  atomic.Int64
	unionParts atomic.Int64
	parallel   atomic.Bool
}

// run executes root. The result is the concatenation of the root
// iterator's batches.
func (ex *executor) run(root Node) (*rel.Rel, []string, error) {
	s, err := ex.build(root, false)
	if err != nil {
		return nil, nil, err
	}
	out := rel.New(len(s.cols))
	for {
		b, err := s.it.next()
		if err != nil {
			s.it.close()
			return nil, nil, err
		}
		if b == nil {
			break
		}
		out.Data = append(out.Data, b.Data...)
		// The accumulating result is live memory.
		ex.mem.alloc(relBytes(b))
	}
	s.it.close()
	ex.tr.SourceBatches += int(ex.srcBatches.Load())
	ex.tr.PartitionScans += int(ex.partScans.Load())
	ex.tr.UnionParts += int(ex.unionParts.Load())
	if ex.parallel.Load() {
		ex.tr.Parallel = true
	}
	ex.tr.PeakBytes = ex.mem.peakBytes()
	return out, s.cols, nil
}

// build lowers one plan node to a pipeline. bounded reports that a Limit or
// a bounded TopN sits above the node, which licenses early termination
// (read-ahead scans, joins that stop pulling); drained nodes keep the
// charge contract of the file comment.
func (ex *executor) build(n Node, bounded bool) (stream, error) {
	if err := ex.ctx.Err(); err != nil {
		return stream{}, err
	}
	// A pull iterator has exactly one consumer, so a shared subexpression
	// (q6's reused access) is drained once into a memo and re-chunked per
	// consumer — shared nodes are pipeline barriers.
	if ex.uses[n] > 1 {
		m, err := ex.shared(n)
		if err != nil {
			return stream{}, err
		}
		return stream{it: newChunkIter(ex, m.rel), cols: m.cols, sorted: m.sorted}, nil
	}
	return ex.buildNode(n, bounded)
}

// shared drains a shared subexpression on its first use and returns the
// memoized result on every use.
func (ex *executor) shared(n Node) (*memoRel, error) {
	if m, ok := ex.memo[n]; ok {
		return m, nil
	}
	s, err := ex.buildNode(n, false)
	if err != nil {
		return nil, err
	}
	r, err := drainAll(s.it, len(s.cols))
	if err != nil {
		return nil, err
	}
	// The memo stays live until the plan finishes.
	ex.mem.alloc(relBytes(r))
	m := &memoRel{rel: r, cols: s.cols, sorted: s.sorted}
	ex.memo[n] = m
	return m, nil
}

func (ex *executor) buildNode(n Node, bounded bool) (stream, error) {
	// Open the node's profile frame across the build phase (pipeline
	// breakers like the partitioned join's hash build charge here) and
	// wrap the finished edge so every next()/close() window accrues too.
	var prof *OpProfile
	var c0 charge
	var t0 time.Time
	if ex.prof != nil {
		prof = ex.prof.enter(n)
		c0 = ex.prof.charges()
		t0 = time.Now()
	}
	var s stream
	var err error
	switch x := n.(type) {
	case *Access:
		s, err = ex.buildAccess(x, bounded)
	case *Join:
		s, err = ex.buildJoin(x, bounded)
	case *LeftJoin:
		s, err = ex.buildLeftJoin(x, bounded)
	case *FilterNe:
		s, err = ex.buildFilter(x.In, bounded, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			v := uint64(x.Value)
			return func(row []uint64) bool { return row[c] != v }, nil
		})
	case *FilterEqCols:
		s, err = ex.buildFilter(x.In, bounded, func(in stream) (func([]uint64) bool, error) {
			a, err := in.col(x.A)
			if err != nil {
				return nil, err
			}
			b, err := in.col(x.B)
			if err != nil {
				return nil, err
			}
			return func(row []uint64) bool { return row[a] == row[b] }, nil
		})
	case *FilterRange:
		s, err = ex.buildFilter(x.In, bounded, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			pred := RangePred(x)
			return func(row []uint64) bool { return pred(row[c]) }, nil
		})
	case *Having:
		s, err = ex.buildFilter(x.In, bounded, func(in stream) (func([]uint64) bool, error) {
			c, err := in.col(x.Col)
			if err != nil {
				return nil, err
			}
			return func(row []uint64) bool { return row[c] > x.Min }, nil
		})
	case *Distinct:
		s, err = ex.buildDistinct(x, bounded)
	case *Union:
		s, err = ex.buildUnion(x, bounded)
	case *Group:
		s, err = ex.buildGroup(x, bounded)
	case *Project:
		s, err = ex.buildProject(x, bounded)
	case *TopN:
		s, err = ex.buildTopN(x, bounded)
	case *Limit:
		s, err = ex.buildLimit(x)
	default:
		err = fmt.Errorf("unknown plan node %T", n)
	}
	if prof != nil {
		prof.add(ex.prof.charges().sub(c0), time.Since(t0))
		ex.prof.exit()
	}
	if err != nil {
		return stream{}, err
	}
	// Every edge's in-flight batch counts toward peak memory.
	s.it = &edge{mem: ex.mem, in: s.it}
	if prof != nil {
		s.it = &profIter{p: ex.prof, prof: prof, in: s.it}
	}
	return s, nil
}

// edge wraps an operator output: it tracks the in-flight batch as live
// memory and makes close idempotent, so operators may close their inputs
// defensively.
type edge struct {
	mem    *memTracker
	in     iter
	held   int64
	closed bool
}

func (e *edge) next() (*rel.Rel, error) {
	if e.closed {
		return nil, nil
	}
	b, err := e.in.next()
	e.mem.free(e.held)
	e.held = 0
	if b != nil {
		e.held = relBytes(b)
		e.mem.alloc(e.held)
	}
	return b, err
}

func (e *edge) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.mem.free(e.held)
	e.held = 0
	e.in.close()
}

// chunkIter slices a relation into batches, loading it on the first pull.
// The views alias the backing array, so slicing charges nothing. A scan
// chunkIter (load set) holds the scan's range as live memory until it is
// exhausted or closed and counts its batches as source batches; a memo
// chunkIter (rel set) aliases memory the executor already tracks.
type chunkIter struct {
	ex   *executor
	load func() (*rel.Rel, error)
	rel  *rel.Rel
	cur  int
	held int64
}

func newChunkIter(ex *executor, r *rel.Rel) *chunkIter {
	return &chunkIter{ex: ex, rel: r}
}

func (c *chunkIter) next() (*rel.Rel, error) {
	if err := c.ex.ctx.Err(); err != nil {
		return nil, err
	}
	if c.rel == nil {
		if c.load == nil {
			return nil, nil
		}
		r, err := c.load()
		if err != nil {
			return nil, err
		}
		c.load = nil
		c.rel = r
		c.held = relBytes(r)
		c.ex.mem.alloc(c.held)
	}
	n := c.rel.Len()
	if c.cur >= n {
		c.release()
		return nil, nil
	}
	hi := c.cur + c.ex.batch
	if hi > n {
		hi = n
	}
	out := &rel.Rel{W: c.rel.W, Data: c.rel.Data[c.cur*c.rel.W : hi*c.rel.W]}
	c.cur = hi
	if c.held > 0 {
		c.ex.srcBatches.Add(1)
	}
	return out, nil
}

// release frees a loaded scan range.
func (c *chunkIter) release() {
	c.ex.mem.free(c.held)
	c.held = 0
}

func (c *chunkIter) close() {
	c.release()
	c.load = nil
	if c.rel != nil {
		c.cur = c.rel.Len()
	}
}

// srcIter adapts a physical RelIter: counts source batches and checks the
// request context at every batch boundary, so cancellation lands mid-scan.
type srcIter struct {
	ex  *executor
	src RelIter
}

func (s *srcIter) next() (*rel.Rel, error) {
	for {
		if err := s.ex.ctx.Err(); err != nil {
			return nil, err
		}
		b, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if b.Len() == 0 {
			continue
		}
		s.ex.srcBatches.Add(1)
		return b, nil
	}
}

func (s *srcIter) close() { s.src.Close() }

// mapIter applies a pure per-batch transform (assembly, tagging,
// projection), skipping batches the transform empties.
type mapIter struct {
	in iter
	f  func(*rel.Rel) *rel.Rel
}

func (m *mapIter) next() (*rel.Rel, error) {
	for {
		b, err := m.in.next()
		if b == nil || err != nil {
			return nil, err
		}
		out := m.f(b)
		if out.Len() > 0 {
			return out, nil
		}
	}
}

func (m *mapIter) close() { m.in.close() }

// emptyIter emits nothing.
type emptyIter struct{}

func (emptyIter) next() (*rel.Rel, error) { return nil, nil }
func (emptyIter) close()                  {}

// drainAll pulls an input to exhaustion into one relation and closes it —
// the pipeline breakers' buffering step.
func drainAll(it iter, w int) (*rel.Rel, error) {
	out := rel.New(w)
	for {
		b, err := it.next()
		if err != nil {
			it.close()
			return nil, err
		}
		if b == nil {
			break
		}
		out.Data = append(out.Data, b.Data...)
	}
	it.close()
	return out, nil
}

// countRows pulls an input to exhaustion, discarding the rows, and closes
// it — how a drained join finishes the side whose rows can no longer match.
func countRows(it iter) (int, error) {
	n := 0
	for {
		b, err := it.next()
		if err != nil {
			it.close()
			return n, err
		}
		if b == nil {
			break
		}
		n += b.Len()
	}
	it.close()
	return n, nil
}

// propScan opens one per-property scan: the scheme's bulk ScanProp read at
// first pull when drained, its windowed StreamProp cursor when bounded (or
// the bulk scan again on schemes without StreamSource).
func (ex *executor) propScan(p, s, o rdf.ID, need ScanCols, bounded bool) (iter, error) {
	if ss, ok := ex.src.(StreamSource); ok && bounded {
		ri, err := ss.StreamProp(p, s, o, need, ex.batch)
		if err != nil {
			return nil, err
		}
		return &srcIter{ex: ex, src: ri}, nil
	}
	return &chunkIter{ex: ex, load: func() (*rel.Rel, error) {
		return ex.src.ScanProp(p, s, o, need)
	}}, nil
}

// assembleIter maps physical scan batches to the pattern's variable
// columns (pure, no charges). Property scans deliver (s, o) rows under
// property p; triple scans (triples set) deliver (s, p, o) rows. When the
// pattern's variables are exactly the physical columns in order, every
// batch already is its assembled form and passes through uncopied.
func assembleIter(in iter, slots []slot, triples bool, p uint64) iter {
	phys := []int{0, 2}
	if triples {
		phys = []int{0, 1, 2}
	}
	if len(slots) == len(phys) && len(slotCols(slots)) == len(slots) {
		same := true
		for i, sl := range slots {
			same = same && sl.pos == phys[i]
		}
		if same {
			return in
		}
	}
	return &mapIter{in: in, f: func(b *rel.Rel) *rel.Rel {
		out, _ := assemble(slots, b.Len(), func(i int) [3]uint64 {
			r := b.Row(i)
			if triples {
				return [3]uint64{r[0], r[1], r[2]}
			}
			return [3]uint64{r[0], p, r[1]}
		})
		return out
	}}
}

func (ex *executor) buildAccess(a *Access, bounded bool) (stream, error) {
	tp := a.Pattern
	slots := ex.keptSlots(a)
	cols := slotCols(slots)

	if tp.P.Bound() {
		// Single-property access: the per-property scan path on every
		// scheme (an indexed range on the triples table, or one vertical
		// table).
		it, err := ex.propScan(tp.P.Const, tp.S.Const, tp.O.Const, needOf(slots), bounded)
		if err != nil {
			return stream{}, err
		}
		out := assembleIter(it, slots, false, uint64(tp.P.Const))
		sorted := ""
		if ex.src.PropOrdered() {
			// SO-clustered vertical tables return the first unbound
			// position ascending: subjects in general, objects within one
			// bound subject.
			switch {
			case !tp.S.Bound() && tp.S.Var != "":
				sorted = tp.S.Var
			case !tp.O.Bound() && tp.O.Var != "":
				sorted = tp.O.Var
			}
		}
		return stream{it: out, cols: cols, sorted: sorted}, nil
	}

	if ex.src.Partitioned() {
		// Unbound property over per-property tables: scan each table and
		// union — the plans with "more than two hundred unions and joins"
		// the paper attributes to the vertical scheme. The restricted
		// queries visit only the interesting tables.
		props := ex.src.Cat().AllProps
		if a.Restrict {
			props = ex.src.Cat().Interesting
		}
		open := func(i int) (iter, error) {
			it, err := ex.propScan(props[i], tp.S.Const, tp.O.Const, needOf(slots), bounded)
			if err != nil {
				return nil, err
			}
			return assembleIter(it, slots, false, uint64(props[i])), nil
		}
		return stream{it: ex.fanout(open, len(props), len(cols)), cols: cols}, nil
	}

	// Unbound property on a triple-store: one scan of the triples table,
	// with the property restriction applied as the properties-table
	// semijoin of the paper's restricted queries (which reads the property
	// column, so the mask must include it).
	need := needOf(slots)
	if a.Restrict {
		need.P = true
	}
	var it iter
	if ss, ok := ex.src.(StreamSource); ok && bounded {
		it = &srcIter{ex: ex, src: ss.StreamTriples(tp.S.Const, tp.O.Const, need, ex.batch)}
		if a.Restrict {
			// Streamed, the restriction is a set filter probed per row; the
			// properties-table scan of the bulk path is not re-read.
			set := ex.src.Cat().interestingSet()
			it = &filterIter{ex: ex, in: it, w: 3, restrict: true, pred: func(row []uint64) bool {
				return set[row[1]]
			}}
		}
	} else {
		it = &chunkIter{ex: ex, load: func() (*rel.Rel, error) {
			rows := ex.src.ScanTriples(tp.S.Const, tp.O.Const, need)
			if a.Restrict {
				rows = ex.src.RestrictProps(rows, 1)
			}
			return rows, nil
		}}
	}
	return stream{it: assembleIter(it, slots, true, 0), cols: cols}, nil
}

// fanout streams the per-property parts of a partitioned access in property
// order — sequentially, or with a prefetching worker pool when the parallel
// mode is on. The union is charged when the fan-out finishes: one dispatch
// per opened part, and the row movement once over all parts.
// Closing the fan-out early stops parts that were never reached (with
// workers the abandoned prefetch depth is scheduling-dependent, see
// ExecOptions.Workers). The w parameter is the width the union movement is
// charged at — partitioned joins union before projecting away the access's
// copy of the join column, so it can exceed the emitted batch width.
func (ex *executor) fanout(open func(i int) (iter, error), n, w int) iter {
	u := &unionCharge{ex: ex, w: w}
	if ex.opt.Workers > 1 && n > 1 {
		return &parFanout{ex: ex, open: open, n: n, union: u}
	}
	return &seqFanout{ex: ex, open: open, n: n, union: u}
}

// unionCharge accumulates the parts a union-all merges and the rows it
// moves, and charges them once. Parts may open on prefetch workers. A
// binary union of two plan inputs charges the engine's binary-union
// dispatch instead of one per part.
type unionCharge struct {
	ex     *executor
	w      int
	binary bool
	parts  atomic.Int64
	rows   int
	done   bool
}

func (u *unionCharge) add(n int) { u.rows += n }

// openPart counts one opened fan-out part.
func (u *unionCharge) openPart() {
	u.parts.Add(1)
	u.ex.partScans.Add(1)
	u.ex.unionParts.Add(1)
}

func (u *unionCharge) finish() {
	if u.done {
		return
	}
	u.done = true
	if u.binary {
		u.ex.ops.StreamUnionNode()
	}
	for i := u.parts.Load(); i > 0; i-- {
		u.ex.ops.StreamNode()
	}
	u.ex.ops.StreamUnionRows(u.rows, u.w)
}

type seqFanout struct {
	ex    *executor
	open  func(i int) (iter, error)
	n     int
	union *unionCharge
	cur   int
	it    iter
}

func (f *seqFanout) next() (*rel.Rel, error) {
	for {
		if f.it == nil {
			if f.cur >= f.n {
				f.union.finish()
				return nil, nil
			}
			it, err := f.open(f.cur)
			if err != nil {
				return nil, err
			}
			f.union.openPart()
			f.cur++
			f.it = it
		}
		b, err := f.it.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			f.it.close()
			f.it = nil
			continue
		}
		f.union.add(b.Len())
		return b, nil
	}
}

func (f *seqFanout) close() {
	if f.it != nil {
		f.it.close()
		f.it = nil
	}
	f.cur = f.n
	f.union.finish()
}

// parFanout prefetches the per-property parts over the worker pool while the
// consumer drains them in property order, so output stays byte-identical to
// the sequential fan-out. Each part gets a small buffered channel; closing
// the fan-out sets the stop flag, drains every channel (unblocking workers
// mid-send), and waits for the pool — the deadlock-free shutdown protocol.
type fanMsg struct {
	b   *rel.Rel
	err error
}

type parFanout struct {
	ex      *executor
	open    func(i int) (iter, error)
	n       int
	union   *unionCharge
	chans   []chan fanMsg
	stop    atomic.Bool
	wg      sync.WaitGroup
	cur     int
	started bool
	closed  bool
}

func (f *parFanout) start() {
	f.started = true
	f.ex.parallel.Store(true)
	f.chans = make([]chan fanMsg, f.n)
	for i := range f.chans {
		f.chans[i] = make(chan fanMsg, 2)
	}
	workers := f.ex.opt.Workers
	if workers > f.n {
		workers = f.n
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for i := range idx {
				f.runPart(i)
			}
		}()
	}
	go func() {
		for i := 0; i < f.n; i++ {
			idx <- i
		}
		close(idx)
	}()
}

func (f *parFanout) runPart(i int) {
	ch := f.chans[i]
	defer close(ch)
	if f.stop.Load() {
		return
	}
	it, err := f.open(i)
	if err != nil {
		ch <- fanMsg{err: err}
		return
	}
	defer it.close()
	f.union.openPart()
	for {
		if f.stop.Load() {
			return
		}
		b, err := it.next()
		if err != nil {
			ch <- fanMsg{err: err}
			return
		}
		if b == nil {
			return
		}
		// Prefetched batches waiting in the channel are live memory.
		f.ex.mem.alloc(relBytes(b))
		ch <- fanMsg{b: b}
	}
}

func (f *parFanout) next() (*rel.Rel, error) {
	if !f.started {
		f.start()
	}
	for f.cur < f.n {
		msg, ok := <-f.chans[f.cur]
		if !ok {
			f.cur++
			continue
		}
		if msg.err != nil {
			return nil, msg.err
		}
		f.ex.mem.free(relBytes(msg.b))
		f.union.add(msg.b.Len())
		return msg.b, nil
	}
	f.union.finish()
	return nil, nil
}

func (f *parFanout) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.union.finish()
	if !f.started {
		return
	}
	f.stop.Store(true)
	for _, ch := range f.chans {
		for msg := range ch {
			f.ex.mem.free(relBytes(msg.b))
		}
	}
	f.wg.Wait()
}

// filterIter drops rows failing pred and charges its dispatch and the
// evaluated rows once, at exhaustion or close (restrict selects the
// engine's interesting-properties restriction rate).
type filterIter struct {
	ex       *executor
	in       iter
	w        int
	pred     func([]uint64) bool
	restrict bool
	rows     int
	done     bool
}

func (f *filterIter) next() (*rel.Rel, error) {
	for {
		b, err := f.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			f.finish()
			return nil, nil
		}
		n := b.Len()
		f.rows += n
		out := rel.New(b.W)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if f.pred(row) {
				out.Data = append(out.Data, row...)
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

func (f *filterIter) finish() {
	if f.done {
		return
	}
	f.done = true
	f.ex.ops.StreamNode()
	if f.restrict {
		f.ex.ops.StreamRestrictRows(f.rows, f.w)
	} else {
		f.ex.ops.StreamFilterRows(f.rows, f.w)
	}
}

func (f *filterIter) close() {
	f.finish()
	f.in.close()
}

func (ex *executor) buildFilter(in Node, bounded bool, mk func(stream) (func([]uint64) bool, error)) (stream, error) {
	s, err := ex.build(in, bounded)
	if err != nil {
		return stream{}, err
	}
	pred, err := mk(s)
	if err != nil {
		s.it.close()
		return stream{}, err
	}
	return stream{
		it:     &filterIter{ex: ex, in: s.it, w: len(s.cols), pred: pred},
		cols:   s.cols,
		sorted: s.sorted,
	}, nil
}

// sharedVar finds the single join variable of two schemas.
func sharedVar(lcols, rcols []string) (string, error) {
	rSet := map[string]bool{}
	for _, c := range rcols {
		rSet[c] = true
	}
	var shared []string
	for _, c := range lcols {
		if rSet[c] {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		return "", fmt.Errorf("join of %v and %v shares %d variables, want 1", lcols, rcols, len(shared))
	}
	return shared[0], nil
}

// joinOutCols is the executor's join output schema: left columns, then the
// right's minus its copy of the join column.
func joinOutCols(lcols, rcols []string, rc int) []string {
	cols := make([]string, 0, len(lcols)+len(rcols)-1)
	cols = append(cols, lcols...)
	for i, c := range rcols {
		if i != rc {
			cols = append(cols, c)
		}
	}
	return cols
}

// partitionedJoinSide recognizes a join input that is an unbound-property
// access on a partitioned scheme (optionally behind a FilterNe), the shape
// eligible for join pushdown into the per-property fan-out.
func (ex *executor) partitionedJoinSide(n Node) (*Access, *FilterNe) {
	var f *FilterNe
	if x, ok := n.(*FilterNe); ok {
		if ex.uses[x] > 1 {
			return nil, nil
		}
		f = x
		n = x.In
	}
	a, ok := n.(*Access)
	if !ok || a.Pattern.P.Bound() || !ex.src.Partitioned() {
		return nil, nil
	}
	// A shared subexpression must be evaluated exactly once through the
	// memo, never consumed by pushdown (which bypasses memoization).
	if ex.uses[a] > 1 {
		return nil, nil
	}
	return a, f
}

func (ex *executor) buildJoin(j *Join, bounded bool) (stream, error) {
	// Join pushdown: a partitioned unbound-property access joins per
	// property table, inside the fan-out.
	if a, f := ex.partitionedJoinSide(j.R); a != nil {
		other, err := ex.build(j.L, bounded)
		if err != nil {
			return stream{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return ex.buildPartitionedJoin(other, a, f, bounded)
	}
	if a, f := ex.partitionedJoinSide(j.L); a != nil {
		other, err := ex.build(j.R, bounded)
		if err != nil {
			return stream{}, err
		}
		if ex.prof != nil {
			ex.prof.note(j, "partitioned hash")
		}
		return ex.buildPartitionedJoin(other, a, f, bounded)
	}
	l, err := ex.build(j.L, bounded)
	if err != nil {
		return stream{}, err
	}
	r, err := ex.build(j.R, bounded)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	v, err := sharedVar(l.cols, r.cols)
	if err != nil {
		l.it.close()
		r.it.close()
		return stream{}, err
	}
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	merge := l.sorted == v && r.sorted == v
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: merge})
	if ex.prof != nil {
		if merge {
			ex.prof.note(j, "merge")
		} else {
			ex.prof.note(j, "hash")
		}
	}
	cols := joinOutCols(l.cols, r.cols, rc)
	if merge {
		it := &mergeJoinIter{ex: ex, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), bounded: bounded}
		return stream{it: it, cols: cols, sorted: v}, nil
	}
	it := &hashJoinIter{ex: ex, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols), bounded: bounded}
	return stream{it: it, cols: cols}, nil
}

// hashJoinIter builds on the smaller input without knowing |R| in advance:
// it drains L (the build side's size is always known to an optimizer),
// then buffers R only until R proves at least as large as L — from then on
// R streams straight through the probe. When R exhausts smaller, the
// buffered R builds and the drained L probes in order; building the right
// input costs one more operator dispatch, the engines' swapped-join price.
// Either way the emitted order is probe-major with matches in build-
// insertion order. An empty L closes R unread only when bounded; a drained
// join probes all of R, as the charge contract requires. All charges land
// at finish, after both inputs' I/O.
type hashJoinIter struct {
	ex      *executor
	l, r    iter
	lc, rc  int
	lw, rw  int
	bounded bool
	started bool
	done    bool
	charged bool

	ht        map[uint64][]int
	build     *rel.Rel   // build side rows in insertion order
	buildIsL  bool       // false until a side is built; R builds when smaller
	probeRel  *rel.Rel   // drained probe side (build-R case)
	probeCur  int        // chunk cursor into probeRel
	replay    []*rel.Rel // buffered probe batches to re-emit (build-L case)
	bufBytes  int64
	buildRows int
	probeRows int
	emitRows  int
}

func (h *hashJoinIter) start() error {
	h.started = true
	lrel, err := drainAll(h.l, h.lw)
	if err != nil {
		return err
	}
	h.hold(relBytes(lrel))
	nl := lrel.Len()
	if nl == 0 && h.bounded {
		// No row can join; close R unread.
		h.buildIsL = true
		h.r.close()
		h.done = true
		h.finish()
		h.release()
		return nil
	}
	var rbufs []*rel.Rel
	rRows := 0
	for rRows < nl {
		b, err := h.r.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		h.hold(relBytes(b))
		rbufs = append(rbufs, b)
		rRows += b.Len()
	}
	if rRows < nl {
		// R is strictly smaller: build R (insertion order = R order), probe
		// the drained L in its order.
		bld := rel.New(h.rw)
		for _, b := range rbufs {
			bld.Data = append(bld.Data, b.Data...)
		}
		h.build = bld
		h.buildTable(bld, h.rc)
		h.probeRel = lrel
	} else {
		// L is no larger: build L, probe the buffered R batches then the
		// live tail.
		h.buildIsL = true
		h.build = lrel
		h.buildTable(lrel, h.lc)
		h.replay = rbufs
	}
	return nil
}

func (h *hashJoinIter) buildTable(b *rel.Rel, c int) {
	n := b.Len()
	h.buildRows = n
	h.ht = make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		k := b.Row(i)[c]
		h.ht[k] = append(h.ht[k], i)
	}
	// The table's buckets are live alongside the buffered rows.
	h.hold(int64(n) * 16)
}

func (h *hashJoinIter) hold(n int64) {
	h.ex.mem.alloc(n)
	h.bufBytes += n
}

func (h *hashJoinIter) release() {
	h.ex.mem.free(h.bufBytes)
	h.bufBytes = 0
	h.ht = nil
	h.build = nil
	h.probeRel = nil
	h.replay = nil
}

// finish charges the join once: its dispatch (two when the right input
// built), the build, the probe and the output materialization.
func (h *hashJoinIter) finish() {
	if h.charged {
		return
	}
	h.charged = true
	h.ex.ops.StreamNode()
	if h.build == nil && !h.buildIsL {
		return // closed or failed before any side was built
	}
	buildW, probeW := h.lw, h.rw
	if !h.buildIsL {
		h.ex.ops.StreamNode()
		buildW, probeW = h.rw, h.lw
	}
	h.ex.ops.StreamHashBuildRows(h.buildRows, buildW)
	h.ex.ops.StreamHashProbeRows(h.probeRows, probeW)
	// Charged at the pre-projection width; the operator fuses the free
	// projection that drops the right copy of the join column.
	h.ex.ops.StreamJoinEmitRows(h.emitRows, h.lw+h.rw)
}

// nextProbe returns the next probe-side batch, or nil at exhaustion.
func (h *hashJoinIter) nextProbe() (*rel.Rel, error) {
	if h.probeRel != nil {
		n := h.probeRel.Len()
		if h.probeCur >= n {
			return nil, nil
		}
		hi := h.probeCur + h.ex.batch
		if hi > n {
			hi = n
		}
		b := &rel.Rel{W: h.probeRel.W, Data: h.probeRel.Data[h.probeCur*h.probeRel.W : hi*h.probeRel.W]}
		h.probeCur = hi
		return b, nil
	}
	if len(h.replay) > 0 {
		b := h.replay[0]
		h.replay = h.replay[1:]
		return b, nil
	}
	return h.r.next()
}

func (h *hashJoinIter) next() (*rel.Rel, error) {
	if !h.started {
		if err := h.start(); err != nil {
			return nil, err
		}
	}
	if h.done {
		return nil, nil
	}
	outW := h.lw + h.rw - 1
	pc := h.rc
	if !h.buildIsL {
		pc = h.lc
	}
	for {
		pb, err := h.nextProbe()
		if err != nil {
			return nil, err
		}
		if pb == nil {
			h.done = true
			h.finish()
			h.release()
			return nil, nil
		}
		n := pb.Len()
		h.probeRows += n
		out := rel.New(outW)
		for i := 0; i < n; i++ {
			prow := pb.Row(i)
			for _, bi := range h.ht[prow[pc]] {
				brow := h.build.Row(bi)
				if h.buildIsL {
					appendJoinRow(out, brow, prow, h.rc)
				} else {
					appendJoinRow(out, prow, brow, h.rc)
				}
			}
		}
		if out.Len() > 0 {
			h.emitRows += out.Len()
			return out, nil
		}
	}
}

// appendJoinRow emits one joined row: the left row, then the right row minus
// its copy of the join column — the post-join projection, fused.
func appendJoinRow(out *rel.Rel, lrow, rrow []uint64, rc int) {
	out.Data = append(out.Data, lrow...)
	for i, v := range rrow {
		if i != rc {
			out.Data = append(out.Data, v)
		}
	}
}

func (h *hashJoinIter) close() {
	h.done = true
	h.finish()
	h.release()
	h.l.close()
	h.r.close()
}

// buildLeftJoin streams SPARQL's OPTIONAL: the optional (right) side builds
// — it must be complete before any left row can be declared unmatched — and
// the required (left) side streams through the probe in order, so left
// ordering survives. There is no partitioned pushdown: the OPTIONAL boundary
// is also a fan-out boundary.
func (ex *executor) buildLeftJoin(j *LeftJoin, bounded bool) (stream, error) {
	l, err := ex.build(j.L, bounded)
	if err != nil {
		return stream{}, err
	}
	r, err := ex.build(j.R, bounded)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	v, err := sharedVar(l.cols, r.cols)
	if err != nil {
		l.it.close()
		r.it.close()
		return stream{}, fmt.Errorf("left %w", err)
	}
	lc, _ := l.col(v)
	rc, _ := r.col(v)
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	if ex.prof != nil {
		ex.prof.note(j, "hash")
	}
	cols := joinOutCols(l.cols, r.cols, rc)
	it := &leftJoinIter{ex: ex, l: l.it, r: r.it, lc: lc, rc: rc, lw: len(l.cols), rw: len(r.cols)}
	// A matched left row may repeat, which keeps the left ordering
	// non-strictly ascending — what merge joins require.
	return stream{it: it, cols: cols, sorted: l.sorted}, nil
}

type leftJoinIter struct {
	ex        *executor
	l, r      iter
	lc, rc    int
	lw, rw    int
	started   bool
	charged   bool
	ht        map[uint64][]int
	build     *rel.Rel
	nulls     []uint64
	bufBytes  int64
	probeRows int
	emitRows  int
}

func (j *leftJoinIter) start() error {
	j.started = true
	rrel, err := drainAll(j.r, j.rw)
	if err != nil {
		return err
	}
	j.build = rrel
	j.bufBytes = relBytes(rrel) + int64(rrel.Len())*16
	j.ex.mem.alloc(j.bufBytes)
	n := rrel.Len()
	j.ht = make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		k := rrel.Row(i)[j.rc]
		j.ht[k] = append(j.ht[k], i)
	}
	j.nulls = make([]uint64, j.rw)
	for i := range j.nulls {
		j.nulls[i] = uint64(rdf.NoID)
	}
	return nil
}

// finish charges the join once: dispatch, build, probe, materialization.
func (j *leftJoinIter) finish() {
	if j.charged {
		return
	}
	j.charged = true
	j.ex.ops.StreamNode()
	if j.build == nil {
		return // closed or failed before the build
	}
	j.ex.ops.StreamHashBuildRows(j.build.Len(), j.rw)
	j.ex.ops.StreamHashProbeRows(j.probeRows, j.lw)
	// Charged at the pre-projection width.
	j.ex.ops.StreamJoinEmitRows(j.emitRows, j.lw+j.rw)
}

func (j *leftJoinIter) next() (*rel.Rel, error) {
	if !j.started {
		if err := j.start(); err != nil {
			return nil, err
		}
	}
	b, err := j.l.next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		j.finish()
		return nil, nil
	}
	n := b.Len()
	j.probeRows += n
	out := rel.New(j.lw + j.rw - 1)
	for i := 0; i < n; i++ {
		lrow := b.Row(i)
		matches := j.ht[lrow[j.lc]]
		if len(matches) == 0 {
			// The right copy of the join column is dropped, so unmatched
			// rows keep the left value and NoID everywhere else.
			appendJoinRow(out, lrow, j.nulls, j.rc)
			continue
		}
		for _, bi := range matches {
			appendJoinRow(out, lrow, j.build.Row(bi), j.rc)
		}
	}
	// Every left row emits at least once, so the batch is never empty.
	j.emitRows += out.Len()
	return out, nil
}

func (j *leftJoinIter) close() {
	j.finish()
	j.ex.mem.free(j.bufBytes)
	j.bufBytes = 0
	j.ht = nil
	j.build = nil
	j.l.close()
	j.r.close()
}

// rowCur steps row-at-a-time over a batch iterator — the merge join's input
// abstraction — counting the rows it pulled.
type rowCur struct {
	in   iter
	b    *rel.Rel
	i    int
	rows int
	done bool
}

// cur returns the current row, pulling the next batch as needed; nil at
// exhaustion.
func (c *rowCur) cur() ([]uint64, error) {
	for {
		if c.done {
			return nil, nil
		}
		if c.b != nil && c.i < c.b.Len() {
			return c.b.Row(c.i), nil
		}
		b, err := c.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		c.rows += b.Len()
		c.b, c.i = b, 0
	}
}

func (c *rowCur) advance() { c.i++ }

// drain pulls the rest of the input, counting its rows.
func (c *rowCur) drain() error {
	if c.done {
		return nil
	}
	n, err := countRows(c.in)
	c.rows += n
	c.done = true
	return err
}

// mergeJoinIter is the linear merge join over two inputs sorted on their
// join columns. Equal runs cross-product left-outer; only the current
// right-side run is buffered, so memory stays bounded by the largest run.
// Once either input is exhausted no further row can match: a bounded join
// stops there, a drained one pulls the other input to its end, so both
// inputs are charged in full.
type mergeJoinIter struct {
	ex      *executor
	l, r    iter
	lc, rc  int
	lw, rw  int
	bounded bool
	lcur    *rowCur
	rcur    *rowCur
	// run is the buffered right-side equal run being crossed with the
	// current left rows.
	run      [][]uint64
	runVal   uint64
	inRun    bool
	runBytes int64
	emitRows int
	done     bool
	charged  bool
}

func (m *mergeJoinIter) next() (*rel.Rel, error) {
	if m.done {
		m.finish()
		return nil, nil
	}
	if m.lcur == nil {
		m.lcur = &rowCur{in: m.l}
		m.rcur = &rowCur{in: m.r}
	}
	out := rel.New(m.lw + m.rw - 1)
	for out.Len() < m.ex.batch {
		if m.inRun {
			// Cross the current left row with the buffered right run, then
			// step to the next left row of the run.
			lrow, err := m.lcur.cur()
			if err != nil {
				return nil, err
			}
			if lrow == nil || lrow[m.lc] != m.runVal {
				m.endRun()
				continue
			}
			for _, rrow := range m.run {
				appendJoinRow(out, lrow, rrow, m.rc)
			}
			m.lcur.advance()
			continue
		}
		lrow, err := m.lcur.cur()
		if err != nil {
			return nil, err
		}
		rrow, err := m.rcur.cur()
		if err != nil {
			return nil, err
		}
		if lrow == nil || rrow == nil {
			if !m.bounded {
				if err := m.lcur.drain(); err != nil {
					return nil, err
				}
				if err := m.rcur.drain(); err != nil {
					return nil, err
				}
			}
			m.done = true
			break
		}
		lv, rv := lrow[m.lc], rrow[m.rc]
		switch {
		case lv < rv:
			m.lcur.advance()
		case lv > rv:
			m.rcur.advance()
		default:
			// Buffer the full right-side equal run (it may span batches).
			m.runVal = lv
			m.inRun = true
			for {
				m.run = append(m.run, append([]uint64(nil), rrow...))
				m.runBytes += int64(m.rw) * 8
				m.rcur.advance()
				rrow, err = m.rcur.cur()
				if err != nil {
					return nil, err
				}
				if rrow == nil || rrow[m.rc] != m.runVal {
					break
				}
			}
			m.ex.mem.alloc(m.runBytes)
		}
	}
	m.emitRows += out.Len()
	if out.Len() == 0 {
		m.finish()
		return nil, nil
	}
	return out, nil
}

func (m *mergeJoinIter) endRun() {
	m.inRun = false
	m.run = m.run[:0]
	m.ex.mem.free(m.runBytes)
	m.runBytes = 0
}

// finish charges the join once: dispatch, the merge advancement over both
// inputs, and the output materialization.
func (m *mergeJoinIter) finish() {
	if m.charged {
		return
	}
	m.charged = true
	m.ex.ops.StreamNode()
	if m.lcur == nil {
		return
	}
	m.ex.ops.StreamMergeRows(m.lcur.rows, m.rcur.rows)
	// Charged at the pre-projection width.
	m.ex.ops.StreamJoinEmitRows(m.emitRows, m.lw+m.rw)
}

func (m *mergeJoinIter) close() {
	m.done = true
	m.finish()
	if m.runBytes > 0 {
		m.ex.mem.free(m.runBytes)
		m.runBytes = 0
	}
	m.l.close()
	m.r.close()
}

// buildPartitionedJoin streams the join pushdown into a partitioned fan-out:
// instead of materializing the full per-property union and joining once,
// the non-access side drains once into a hash build and every property
// table streams through tag → filter → probe in its own step, in property
// order — the vertically-partitioned plans of the paper, with "more than
// two hundred unions and joins", and the unit of work the parallel mode
// fans out. Join distributes over union, so the result is the same bag.
func (ex *executor) buildPartitionedJoin(other stream, a *Access, f *FilterNe, bounded bool) (stream, error) {
	tp := a.Pattern
	slots := ex.keptSlots(a)
	accCols := slotCols(slots)
	closeOther := func() { other.it.close() }
	v, err := sharedVar(other.cols, accCols)
	if err != nil {
		closeOther()
		return stream{}, err
	}
	oc, _ := other.col(v)
	ac := 0
	for i, c := range accCols {
		if c == v {
			ac = i
		}
	}
	fc := -1
	if f != nil {
		for i, c := range accCols {
			if c == f.Col {
				fc = i
			}
		}
		if fc < 0 {
			closeOther()
			return stream{}, fmt.Errorf("filter column %q not in %v", f.Col, accCols)
		}
	}
	props := ex.src.Cat().AllProps
	if a.Restrict {
		props = ex.src.Cat().Interesting
	}
	// Build once over the drained non-access side.
	orel, err := drainAll(other.it, len(other.cols))
	if err != nil {
		return stream{}, err
	}
	bufBytes := relBytes(orel) + int64(orel.Len())*16
	ex.mem.alloc(bufBytes)
	ex.ops.StreamNode()
	ex.ops.StreamHashBuildRows(orel.Len(), len(other.cols))
	ex.tr.Joins = append(ex.tr.Joins, JoinChoice{Var: v, Merge: false})
	cols := make([]string, 0, len(other.cols)+len(accCols)-1)
	cols = append(cols, other.cols...)
	for i, c := range accCols {
		if i != ac {
			cols = append(cols, c)
		}
	}
	if orel.Len() == 0 && bounded {
		// Nothing can join; skip the fan-out entirely.
		ex.mem.free(bufBytes)
		return stream{it: emptyIter{}, cols: cols}, nil
	}
	ht := make(map[uint64][]int, orel.Len())
	for i := 0; i < orel.Len(); i++ {
		k := orel.Row(i)[oc]
		ht[k] = append(ht[k], i)
	}
	// Fused-step profiles: the access (and filter) never stream standalone,
	// so count their per-part rows through atomics (prefetch workers pull
	// the arms concurrently) and fold the totals in at finish().
	var accRows, accBatches, filtRows, filtBatches atomic.Int64
	if ex.prof != nil {
		ex.profileFused(a, f, &accRows, &accBatches, &filtRows, &filtBatches)
	}
	open := func(i int) (iter, error) {
		it, err := ex.propScan(props[i], tp.S.Const, tp.O.Const, needOf(slots), bounded)
		if err != nil {
			return nil, err
		}
		tagged := assembleIter(it, slots, false, uint64(props[i]))
		if ex.prof != nil {
			tagged = &countIter{in: tagged, rows: &accRows, batches: &accBatches}
		}
		if fc >= 0 {
			val := uint64(f.Value)
			tagged = &filterIter{ex: ex, in: tagged, w: len(accCols), pred: func(row []uint64) bool {
				return row[fc] != val
			}}
			if ex.prof != nil {
				tagged = &countIter{in: tagged, rows: &filtRows, batches: &filtBatches}
			}
		}
		return &partProbeIter{ex: ex, in: tagged, orel: orel, ht: ht, ac: ac, aw: len(accCols)}, nil
	}
	// Union movement is charged at the pre-projection width (the probe
	// outputs before dropping the join column).
	fo := ex.fanout(open, len(props), len(other.cols)+len(accCols))
	return stream{it: &releaseIter{in: fo, free: func() {
		ex.mem.free(bufBytes)
	}}, cols: cols}, nil
}

// profileFused records child frames for a partitioned join's fused access
// (and optional filter) steps under the join being built. The per-part
// arms only run — possibly on prefetch workers — once the pipeline is
// pulled, so row totals land through the atomics at finish(); their work
// is charged to the join frame.
func (ex *executor) profileFused(a *Access, f *FilterNe, accRows, accBatches, filtRows, filtBatches *atomic.Int64) {
	fill := func(p *OpProfile, rows, batches *atomic.Int64) {
		ex.prof.onFinish = append(ex.prof.onFinish, func() {
			p.Rows = int(rows.Load())
			p.Batches = int(batches.Load())
		})
	}
	if f != nil {
		fp := ex.prof.enter(f)
		fp.Note = "fused"
		fill(fp, filtRows, filtBatches)
		defer ex.prof.exit()
	}
	ap := ex.prof.enter(a)
	ap.Note = "fused"
	fill(ap, accRows, accBatches)
	ex.prof.exit()
}

// partProbeIter probes one property table's tagged batches against the
// shared build side, emitting build-row ++ probe-row (minus the access's
// join column) in probe-major order. Each table is its own probe step, so
// its dispatch and rows are charged when the part finishes.
type partProbeIter struct {
	ex        *executor
	in        iter
	orel      *rel.Rel
	ht        map[uint64][]int
	ac        int
	aw        int
	probeRows int
	emitRows  int
	charged   bool
}

func (p *partProbeIter) next() (*rel.Rel, error) {
	outW := p.orel.W + p.aw - 1
	for {
		b, err := p.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			p.finish()
			return nil, nil
		}
		n := b.Len()
		p.probeRows += n
		out := rel.New(outW)
		for i := 0; i < n; i++ {
			arow := b.Row(i)
			for _, oi := range p.ht[arow[p.ac]] {
				appendJoinRow(out, p.orel.Row(oi), arow, p.ac)
			}
		}
		if out.Len() > 0 {
			p.emitRows += out.Len()
			return out, nil
		}
	}
}

func (p *partProbeIter) finish() {
	if p.charged {
		return
	}
	p.charged = true
	p.ex.ops.StreamNode()
	p.ex.ops.StreamHashProbeRows(p.probeRows, p.aw)
	// Charged at the pre-projection width.
	p.ex.ops.StreamJoinEmitRows(p.emitRows, p.orel.W+p.aw)
}

func (p *partProbeIter) close() {
	p.finish()
	p.in.close()
}

// releaseIter frees buffered operator state exactly once, at close or
// exhaustion, whichever comes first.
type releaseIter struct {
	in    iter
	free  func()
	freed bool
}

func (r *releaseIter) next() (*rel.Rel, error) {
	b, err := r.in.next()
	if b == nil && !r.freed {
		r.freed = true
		r.free()
	}
	return b, err
}

func (r *releaseIter) close() {
	if !r.freed {
		r.freed = true
		r.free()
	}
	r.in.close()
}

func (ex *executor) buildDistinct(d *Distinct, bounded bool) (stream, error) {
	s, err := ex.build(d.In, bounded)
	if err != nil {
		return stream{}, err
	}
	it := &distinctIter{ex: ex, in: s.it, w: len(s.cols), seen: map[string]bool{}}
	// First occurrences keep input order, so ordering survives.
	return stream{it: it, cols: s.cols, sorted: s.sorted}, nil
}

// distinctIter keeps first occurrences in input order, with the seen-set
// carried across batches.
type distinctIter struct {
	ex       *executor
	in       iter
	w        int
	seen     map[string]bool
	keyBytes int64
	rows     int
	charged  bool
}

func (d *distinctIter) next() (*rel.Rel, error) {
	buf := make([]byte, 0, d.w*8)
	for {
		b, err := d.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			d.finish()
			return nil, nil
		}
		n := b.Len()
		d.rows += n
		out := rel.New(b.W)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			buf = buf[:0]
			for _, v := range row {
				buf = append(buf,
					byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
					byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
			}
			if k := string(buf); !d.seen[k] {
				d.seen[k] = true
				kb := int64(len(k)) + 16
				d.ex.mem.alloc(kb)
				d.keyBytes += kb
				out.Data = append(out.Data, row...)
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

func (d *distinctIter) finish() {
	if !d.charged {
		d.charged = true
		d.ex.ops.StreamNode()
		d.ex.ops.StreamDistinctRows(d.rows, d.w)
	}
}

func (d *distinctIter) close() {
	d.finish()
	d.ex.mem.free(d.keyBytes)
	d.keyBytes = 0
	d.seen = nil
	d.in.close()
}

func (ex *executor) buildUnion(u *Union, bounded bool) (stream, error) {
	l, err := ex.build(u.L, bounded)
	if err != nil {
		return stream{}, err
	}
	r, err := ex.build(u.R, bounded)
	if err != nil {
		l.it.close()
		return stream{}, err
	}
	fail := func() (stream, error) {
		l.it.close()
		r.it.close()
		return stream{}, fmt.Errorf("union of %v and %v", l.cols, r.cols)
	}
	if len(l.cols) != len(r.cols) {
		return fail()
	}
	// Align the right side's column order with the left's.
	perm := make([]int, len(l.cols))
	identity := true
	for i, c := range l.cols {
		j, err := r.col(c)
		if err != nil {
			return fail()
		}
		perm[i] = j
		if i != j {
			identity = false
		}
	}
	if identity {
		perm = nil
	}
	it := &unionIter{l: l.it, r: r.it, perm: perm, union: &unionCharge{ex: ex, w: len(l.cols), binary: true}}
	return stream{it: it, cols: l.cols}, nil
}

// unionIter concatenates two inputs (left fully, then right), aligning the
// right side's column order per batch when it differs.
type unionIter struct {
	l, r    iter
	perm    []int
	union   *unionCharge
	onRight bool
}

func (u *unionIter) next() (*rel.Rel, error) {
	for {
		var b *rel.Rel
		var err error
		if !u.onRight {
			b, err = u.l.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				u.onRight = true
				continue
			}
		} else {
			b, err = u.r.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				u.union.finish()
				return nil, nil
			}
			if u.perm != nil {
				b = b.Project(u.perm...)
			}
		}
		u.union.add(b.Len())
		return b, nil
	}
}

func (u *unionIter) close() {
	u.union.finish()
	u.l.close()
	u.r.close()
}

func (ex *executor) buildGroup(g *Group, bounded bool) (stream, error) {
	s, err := ex.build(g.In, bounded)
	if err != nil {
		return stream{}, err
	}
	if len(g.Keys) == 0 || len(g.Keys) > 2 {
		s.it.close()
		return stream{}, fmt.Errorf("group on %d keys", len(g.Keys))
	}
	keys := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		if keys[i], err = s.col(k); err != nil {
			s.it.close()
			return stream{}, err
		}
	}
	cols := append(append([]string(nil), g.Keys...), CountCol)
	it := &groupIter{ex: ex, in: s.it, keys: keys}
	// The output is sorted lexicographically on all columns.
	return stream{it: it, cols: cols, sorted: g.Keys[0]}, nil
}

// groupIter is a pipeline breaker, but a compact one: it counts group sizes
// incrementally per batch — only the group table is buffered, never the
// input — then emits the (keys..., count) rows sorted on all columns.
type groupIter struct {
	ex       *executor
	in       iter
	keys     []int
	out      *chunkIter
	tabBytes int64
}

func (g *groupIter) start() error {
	counts := make(map[[2]uint64]uint64, 64)
	rows := 0
	for {
		b, err := g.in.next()
		if err != nil {
			g.in.close()
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		rows += n
		for i := 0; i < n; i++ {
			row := b.Row(i)
			var k [2]uint64
			for j, c := range g.keys {
				k[j] = row[c]
			}
			if _, ok := counts[k]; !ok {
				g.ex.mem.alloc(40)
				g.tabBytes += 40
			}
			counts[k]++
		}
	}
	g.in.close()
	g.ex.ops.StreamNode()
	g.ex.ops.StreamGroupRows(rows, len(g.keys))
	out := rel.New(len(g.keys) + 1)
	for k, cnt := range counts {
		vals := make([]uint64, 0, 3)
		vals = append(vals, k[:len(g.keys)]...)
		vals = append(vals, cnt)
		out.Append(vals...)
	}
	out.Sort()
	g.ex.mem.alloc(relBytes(out))
	g.tabBytes += relBytes(out)
	g.out = newChunkIter(g.ex, out)
	return nil
}

func (g *groupIter) next() (*rel.Rel, error) {
	if g.out == nil {
		if err := g.start(); err != nil {
			return nil, err
		}
	}
	return g.out.next()
}

func (g *groupIter) close() {
	g.ex.mem.free(g.tabBytes)
	g.tabBytes = 0
	g.out = nil
	g.in.close()
}

func (ex *executor) buildProject(p *Project, bounded bool) (stream, error) {
	s, err := ex.build(p.In, bounded)
	if err != nil {
		return stream{}, err
	}
	idx := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		if idx[i], err = s.col(c); err != nil {
			s.it.close()
			return stream{}, err
		}
	}
	names := p.Cols
	if p.As != nil {
		if len(p.As) != len(p.Cols) {
			s.it.close()
			return stream{}, fmt.Errorf("project renames %d of %d columns", len(p.As), len(p.Cols))
		}
		names = p.As
	}
	sorted := ""
	for i, c := range p.Cols {
		if c == s.sorted {
			sorted = names[i]
		}
	}
	it := &mapIter{in: s.it, f: func(b *rel.Rel) *rel.Rel { return b.Project(idx...) }}
	return stream{it: it, cols: append([]string(nil), names...), sorted: sorted}, nil
}

func (ex *executor) buildTopN(t *TopN, bounded bool) (stream, error) {
	s, err := ex.build(t.In, bounded || t.Limit >= 0)
	if err != nil {
		return stream{}, err
	}
	less, err := SortLess(t.Keys, s.cols, t.Ord)
	if err != nil {
		s.it.close()
		return stream{}, err
	}
	if ex.prof != nil {
		if t.Limit >= 0 {
			ex.prof.note(t, "heap")
		} else {
			ex.prof.note(t, "sort")
		}
	}
	it := &topNIter{ex: ex, in: s.it, less: less, limit: t.Limit, w: len(s.cols)}
	// Value order is not identifier order, so the merge-join licence does
	// not survive a TopN.
	return stream{it: it, cols: s.cols}, nil
}

// topNIter is ORDER BY / LIMIT as a bounded heap: for limit k ≥ 0 it keeps
// the k least rows under less in a max-heap (worst at the root), charging
// exactly ceil(log2 k) comparisons per input row; the survivors sort at the
// end, which under the plan layer's total order reproduces a full sort's
// first k rows byte for byte. A negative limit is plain ORDER BY — a
// full-sort breaker delegated to the engine's TopN.
type topNIter struct {
	ex      *executor
	in      iter
	less    func(a, b []uint64) bool
	limit   int
	w       int
	started bool
	out     *chunkIter
	heap    [][]uint64
	bytes   int64
}

func (t *topNIter) start() error {
	t.started = true
	if t.limit < 0 {
		// Plain ORDER BY: nothing to terminate early, so drain and run the
		// engine's own sort.
		in, err := drainAll(t.in, t.w)
		if err != nil {
			return err
		}
		n := in.Len()
		t.ex.tr.TopNs = append(t.ex.tr.TopNs, TopNStat{
			Input: n, Limit: t.limit, Compares: sortCompares(n),
		})
		out := t.ex.ops.TopN(in, t.limit, t.less)
		t.setOut(in, out)
		return nil
	}
	if t.limit == 0 {
		// LIMIT 0 pulls nothing: close the input before it does any work.
		t.in.close()
		t.ex.tr.TopNs = append(t.ex.tr.TopNs, TopNStat{Limit: 0, Heap: true})
		t.out = newChunkIter(t.ex, rel.New(t.w))
		return nil
	}
	k := t.limit
	perRow := ceilLog2(k)
	input := 0
	for {
		b, err := t.in.next()
		if err != nil {
			t.in.close()
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		input += n
		for i := 0; i < n; i++ {
			t.push(b.Row(i), k)
		}
	}
	t.in.close()
	// The engine's full sort dispatches its own node; the heap is ours.
	t.ex.ops.StreamNode()
	t.ex.ops.StreamSortCompares(int64(input) * perRow)
	rows := t.heap
	sort.Slice(rows, func(i, j int) bool { return t.less(rows[i], rows[j]) })
	out := rel.NewCap(t.w, len(rows))
	for _, row := range rows {
		out.Data = append(out.Data, row...)
	}
	t.ex.ops.StreamEmitRows(out.Len(), t.w)
	t.ex.tr.TopNs = append(t.ex.tr.TopNs, TopNStat{
		Input: input, Limit: k, Compares: int64(input) * perRow, Heap: true,
	})
	t.heap = nil
	t.setOut(nil, out)
	return nil
}

// setOut holds the sort buffers as live memory and serves the result.
func (t *topNIter) setOut(in, out *rel.Rel) {
	n := relBytes(in) + relBytes(out)
	t.ex.mem.alloc(n)
	t.bytes += n
	t.out = newChunkIter(t.ex, out)
}

// push offers one row to the bounded max-heap of the k least rows.
func (t *topNIter) push(row []uint64, k int) {
	h := t.heap
	if len(h) < k {
		cp := append([]uint64(nil), row...)
		h = append(h, cp)
		t.ex.mem.alloc(int64(t.w) * 8)
		t.bytes += int64(t.w) * 8
		// Sift up: parents hold the greater row.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !t.less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return
	}
	if !t.less(row, h[0]) {
		return
	}
	copy(h[0], row)
	// Sift down.
	i := 0
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.less(h[big], h[l]) {
			big = l
		}
		if r < n && t.less(h[big], h[r]) {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (t *topNIter) next() (*rel.Rel, error) {
	if !t.started {
		if err := t.start(); err != nil {
			return nil, err
		}
	}
	if t.out == nil {
		return nil, nil
	}
	return t.out.next()
}

func (t *topNIter) close() {
	t.ex.mem.free(t.bytes)
	t.bytes = 0
	t.heap = nil
	t.out = nil
	t.in.close()
}

func (ex *executor) buildLimit(l *Limit) (stream, error) {
	s, err := ex.build(l.In, true)
	if err != nil {
		return stream{}, err
	}
	n := l.N
	if n < 0 {
		n = 0
	}
	it := &limitIter{in: s.it, remaining: n}
	// The prefix of an ordered input stays ordered.
	return stream{it: it, cols: s.cols, sorted: s.sorted}, nil
}

// limitIter passes its input's first N rows through and then closes the
// input — the early-termination signal that propagates all the way into the
// physical scans. Truncation itself is free.
type limitIter struct {
	in        iter
	remaining int
	done      bool
}

func (l *limitIter) next() (*rel.Rel, error) {
	if l.done {
		return nil, nil
	}
	if l.remaining <= 0 {
		l.done = true
		l.in.close()
		return nil, nil
	}
	b, err := l.in.next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		l.done = true
		return nil, nil
	}
	if b.Len() > l.remaining {
		b = &rel.Rel{W: b.W, Data: b.Data[:l.remaining*b.W]}
	}
	l.remaining -= b.Len()
	if l.remaining == 0 {
		l.done = true
		l.in.close()
	}
	return b, nil
}

func (l *limitIter) close() {
	l.done = true
	l.in.close()
}
