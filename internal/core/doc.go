// Package core implements the study itself: the two RDF storage schemes
// (triple-store with a chosen clustering, and the vertically-partitioned
// scheme) instantiated over both the row-store and the column-store engine,
// the twelve benchmark queries (q1–q8 plus the full-scale * variants of
// q2/q3/q4/q6), the RDF query-space model of Section 2.2 (triple patterns
// p1–p8 and join patterns A/B/C, with the Table 2 coverage analysis), and
// the SQL text generator that plays the role of the authors' Perl script.
//
// Queries execute through the declarative plan layer: PlanFor declares each
// query once as a logical operator DAG, and one executor lowers it onto any
// scheme from its physical properties (PhysicalSource). The executor
// (stream.go) pulls fixed-size row batches through iterator pipelines with
// no materialization barriers except hash builds, grouping, full sorts and
// shared subexpressions; each engine supplies only the cost of every
// operator class (PhysicalOps). A fully drained plan reads each scan range
// with the scheme's bulk scan and charges exactly what the engines'
// operator-at-a-time operators charged — the paper tables depend on it, and
// the golden grid in internal/bench pins it. Below a LIMIT, and below the
// bounded-heap TopN (n·⌈log₂ k⌉ comparisons), scans stream through
// read-ahead windows and early termination reaches the physical scans, so
// bounded queries stop paying simulated I/O and hold only a few batches of
// intermediate state (Trace.PeakBytes).
//
// Results are byte-identical — including row order — at every batch size
// and worker count. ExecutePlanCtx checks cancellation at batch boundaries,
// and ExecOptions.Workers fans partitioned scans over a worker pool with
// deterministic charge totals.
package core
