package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. On a shared virtual machine the CPU clock holds
// steady, but throughput-bound code (hashing, sorting, pointer chasing)
// runs up to 2x slower for minutes at a time as other tenants load the
// host's shared cores and caches, with no CPU steal reported. Measured on
// a 2-vCPU virtual machine, one such swing slowed the probe below by
// 1.6-1.7x, the read latencies by 1.7x and the grid by 1.9-2.2x, and no
// within-run median can remove a slowdown that lasts the whole run. So
// every host-time end-to-end metric is reported at a reference speed: a
// meter thread runs a fixed, allocation-free probe (map inserts and a
// sort, the kinds of work query execution does) every probeEvery, timed
// on its own thread's CPU clock so preemption by the benchmark's threads
// does not count, and each phase's host times are divided by the median
// probe time during the phase over refProbe. The probe is the benchmark's
// own code: a change to the program moves the metrics and never the probe.

// refProbe defines the reference speed: the speed at which the probe takes
// this much CPU time.
const refProbe = time.Millisecond

// probeEvery is the meter's period; probeMin is the fewest probes a speed
// factor is taken over.
const (
	probeEvery = 100 * time.Millisecond
	probeMin   = 9
)

type probeSample struct {
	at  time.Time     // when the probe ended
	cpu time.Duration // the probe's thread CPU time
}

// speedMeter runs the probe on a locked OS thread until stopped.
type speedMeter struct {
	mu      sync.Mutex
	samples []probeSample
	stopc   chan struct{}
	done    chan struct{}
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{stopc: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go m.loop(ready)
	<-ready
	return m
}

func (m *speedMeter) loop(ready chan struct{}) {
	defer close(m.done)
	runtime.LockOSThread() // never unlocked: the thread ends with the goroutine
	p := newProbe()
	p.run() // touch the probe's memory before the first sample
	close(ready)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
		}
		c0 := threadCPU()
		p.run()
		d := threadCPU() - c0
		now := time.Now()
		m.mu.Lock()
		m.samples = append(m.samples, probeSample{now, d})
		m.mu.Unlock()
	}
}

// stop ends the meter and waits for its goroutine to return.
func (m *speedMeter) stop() {
	close(m.stopc)
	<-m.done
}

// snapshot returns the samples so far, in time order.
func (m *speedMeter) snapshot() speedTrace {
	m.mu.Lock()
	defer m.mu.Unlock()
	return speedTrace(slices.Clone(m.samples))
}

// speedTrace is a run's probe samples in time order.
type speedTrace []probeSample

// factor is the host's slowdown over [a, b] relative to the reference
// speed: the median probe time in the interval, widened around it to at
// least probeMin probes, over refProbe. A trace without probes gives 1.
func (s speedTrace) factor(a, b time.Time) float64 {
	if len(s) == 0 {
		return 1
	}
	i := sort.Search(len(s), func(k int) bool { return !s[k].at.Before(a) })
	j := sort.Search(len(s), func(k int) bool { return s[k].at.After(b) })
	for j-i < probeMin && (i > 0 || j < len(s)) {
		if i > 0 {
			i--
		}
		if j-i < probeMin && j < len(s) {
			j++
		}
	}
	v := make([]float64, 0, j-i)
	for _, p := range s[i:j] {
		v = append(v, float64(p.cpu))
	}
	return median(v) / float64(refProbe)
}

// probe is the meter's fixed work, in memory it allocates once.
type probe struct {
	m    map[uint32]uint32
	keys []uint32
}

const probeKeys = 8192

func newProbe() *probe {
	return &probe{m: make(map[uint32]uint32, probeKeys), keys: make([]uint32, probeKeys)}
}

func (p *probe) run() {
	clear(p.m)
	x := uint32(2463534242)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.keys[i] = x
		p.m[x&0xffff] += uint32(i)
	}
	for i, k := range p.keys {
		p.keys[i] = k ^ p.m[k&0xffff]
	}
	slices.Sort(p.keys)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
