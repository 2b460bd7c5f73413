package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// noParent is the Parent of a root span.
const noParent = ^uint64(0)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the call: the program itself carries no spans. Name is
// "<layer>.<call>". Calls is the number of layer operations the span
// covers, 1 unless a span wraps a loop of identical calls.
type Span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Calls      int64
}

// Tracer collects the spans of one job. Every goroutine records into a
// Lane of its own, so recording takes no lock per span. A nil *Tracer
// hands out nil lanes whose methods do nothing, which is how the same
// shadow code runs untraced.
type Tracer struct {
	epoch  time.Time
	heap   *heapStats
	mu     sync.Mutex
	free   []*Lane
	used   []*Lane
	allocs map[string]uint64
}

// Lane is one goroutine's span buffer. A span's ID is its lane number in
// the high 32 bits and its index in the lane in the low 32.
type Lane struct {
	tr    *Tracer
	id    uint64
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), heap: newHeapStats(), allocs: map[string]uint64{}}
}

// Lane returns a fresh lane for the calling goroutine. Lanes stay
// registered until Reset, so a lane is never shared between goroutines.
func (t *Tracer) Lane() *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var l *Lane
	if n := len(t.free); n > 0 {
		l, t.free = t.free[n-1], t.free[:n-1]
	} else {
		l = &Lane{tr: t}
	}
	l.id = uint64(len(t.used))
	l.spans = l.spans[:0]
	t.used = append(t.used, l)
	return l
}

// Begin opens a span named name under parent and returns its ID.
func (l *Lane) Begin(name string, parent uint64) uint64 {
	if l == nil {
		return 0
	}
	id := l.id<<32 | uint64(len(l.spans))
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Name: name, Start: l.tr.now()})
	return id
}

// End closes the span id, which this lane opened, recording how many layer
// operations it covered.
func (l *Lane) End(id uint64, calls int64) {
	if l == nil {
		return
	}
	s := &l.spans[id&0xffffffff]
	s.End, s.Calls = l.tr.now(), calls
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Allocated returns the process's cumulative heap allocation in bytes, or
// 0 on a nil tracer.
func (t *Tracer) Allocated() uint64 {
	if t == nil {
		return 0
	}
	a, _ := t.heap.read()
	return a
}

// AddAlloc charges bytes of heap allocation to a phase of the current job.
// Only the job's own goroutine calls it.
func (t *Tracer) AddAlloc(phase string, bytes uint64) {
	if t != nil {
		t.allocs[phase] += bytes
	}
}

// Reset forgets the recorded spans and allocations, keeping the lane
// buffers for reuse. Call it between jobs, never while one runs.
func (t *Tracer) Reset() {
	t.free = append(t.free, t.used...)
	t.used = t.used[:0]
	clear(t.allocs)
}

// Spans returns every span recorded since the last Reset. Call it after
// the job has returned, when no goroutine records any more.
func (t *Tracer) Spans() []Span {
	var out []Span
	for _, l := range t.used {
		out = append(out, l.spans...)
	}
	return out
}

// analyze returns each span's self time (its duration minus the part of
// it its children cover) and the indices of each span's children. Children
// may overlap each other (the bodies of a parallel loop) or stick out of
// their parent; the covered part is the length of the union of the
// children's intervals clipped to the parent.
func analyze(spans []Span) (self []int64, kids [][]int) {
	pos := make(map[uint64]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	kids = make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := pos[s.Parent]; ok && s.Parent != noParent {
			kids[p] = append(kids[p], i)
		}
	}
	self = make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range kids[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv)
	}
	return self, kids
}

// unionLen returns the total length covered by the half-open intervals iv
// (reordered in place).
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// heapStats reads the runtime's cumulative heap-allocation and GC-cycle
// counters through runtime/metrics, which stops no goroutine.
type heapStats struct{ s []metrics.Sample }

func newHeapStats() *heapStats {
	return &heapStats{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}}
}

func (h *heapStats) read() (allocBytes, gcCycles uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}
