package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"kshape"
)

// tracedSpecs is how many pool entries the traced run cycles through. The
// per-layer counts are averaged over exactly these, each counted once, so
// they repeat exactly from run to run.
const tracedSpecs = 8

// Ledger tolerances, in percent: how much of the traced job no span
// covers, and how far the untraced shadow's job time may sit from the real
// call's, before the outside-in ledger no longer describes the program.
const (
	maxUnattributedPct = 5.0
	maxShadowDriftPct  = 10.0
)

// specCounts is what one pool entry's job does, counted once: the
// program's own counters from the counting call and the shadow's span call
// counts by name.
type specCounts struct {
	counters   kshape.KernelCounters
	iterations int
	converged  bool
	k          int
	calls      map[string]int64
}

// ledger sums the traced shadow jobs' spans by name.
type ledger struct {
	workers              int
	jobs                 int
	self, incl, calls    map[string]int64
	spans                map[string]int64
	rootNS, rootSelfNS   int64
	parBusyNS, parWaitNS int64
	allocs               map[string]uint64
}

func newLedger(workers int) *ledger {
	return &ledger{
		workers: workers,
		self:    map[string]int64{}, incl: map[string]int64{}, calls: map[string]int64{},
		spans: map[string]int64{}, allocs: map[string]uint64{},
	}
}

// add folds one traced job into the ledger and returns the job's span call
// counts by name. A parallel loop's span (par.*) has the loop bodies as
// children: their summed durations are the loop's busy time, and the rest
// of min(workers, bodies) × its duration is time workers waited.
func (l *ledger) add(spans []Span, allocs map[string]uint64) map[string]int64 {
	self, kids := analyze(spans)
	jobCalls := map[string]int64{}
	for i, s := range spans {
		d := s.End - s.Start
		l.self[s.Name] += self[i]
		l.incl[s.Name] += d
		l.calls[s.Name] += s.Calls
		l.spans[s.Name]++
		jobCalls[s.Name] += s.Calls
		if s.Parent == noParent {
			l.rootNS += d
			l.rootSelfNS += self[i]
		}
		if strings.HasPrefix(s.Name, "par.") {
			var busy int64
			for _, c := range kids[i] {
				busy += spans[c].End - spans[c].Start
			}
			l.parBusyNS += busy
			l.parWaitNS += max(0, int64(min(l.workers, len(kids[i])))*d-busy)
		}
	}
	for phase, b := range allocs {
		l.allocs[phase] += b
	}
	l.jobs++
	return jobCalls
}

// traced is the --trace 1 run. Each round takes the next of the first
// tracedSpecs pool entries and runs it five ways, the first two in
// alternating order:
//
//	real     the public call, Workers=W, nothing traced
//	counted  the public call with the program's own counting on
//	shadow   the shadow runner with spans, Workers=W
//	bare     the shadow runner without spans, Workers=W
//	serial   the public call, Workers=1
//
// Every output must equal the real call's labels. Layer times come from
// the shadow's spans, counts from the counting call and the spans, and
// overheads from per-round paired ratios.
func traced(out io.Writer, w *workload, pool []job, seconds float64, workers int, rng *rand.Rand) result {
	tr := NewTracer()
	hs := newHeapStats()
	led := newLedger(workers)
	specs := map[int]*specCounts{}
	var collectR, traceR, driftR, serialR []float64
	var gcCycles uint64
	attempted, failed := 0, 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	nspecs := min(tracedSpecs, len(pool))
	start := time.Now()
	rounds := 0
	for ; ; rounds++ {
		if el := time.Since(start).Seconds(); (el >= seconds && rounds >= nspecs) || el >= maxLoopSeconds {
			break
		}
		si := rounds % nspecs
		j := &pool[si]

		var real, counted outcome
		var counters kshape.KernelCounters
		var tReal, tCounted float64
		var errReal, errCounted error
		// Every call starts from a collected heap, so none pays for the
		// garbage of the one before it (the span analysis leaves plenty).
		doReal := func() {
			runtime.GC()
			_, g0 := hs.read()
			t0 := time.Now()
			real, errReal = call(w.kind, j, workers, false)
			tReal = time.Since(t0).Seconds()
			_, g1 := hs.read()
			gcCycles += g1 - g0
		}
		doCounted := func() {
			runtime.GC()
			t0 := time.Now()
			counted, counters, errCounted = callCounted(w.kind, j, workers)
			tCounted = time.Since(t0).Seconds()
		}
		if rounds%2 == 0 {
			doReal()
			doCounted()
		} else {
			doCounted()
			doReal()
		}

		tr.Reset()
		runtime.GC()
		t0 := time.Now()
		shadowLabels, errShadow := shadow(tr, w.kind, j, workers)
		tShadow := time.Since(t0).Seconds()
		jobCalls := led.add(tr.Spans(), tr.allocs)

		runtime.GC()
		t0 = time.Now()
		bareLabels, errBare := shadow(nil, w.kind, j, workers)
		tBare := time.Since(t0).Seconds()

		runtime.GC()
		t0 = time.Now()
		serial, errSerial := call(w.kind, j, 1, false)
		tSerial := time.Since(t0).Seconds()

		attempted += 5
		if errReal == nil {
			_, errReal = check(w.kind, j, real, rng)
		}
		others := []struct {
			name   string
			labels []int
			err    error
		}{
			{"counting call", counted.labels(), errCounted},
			{"shadow runner", shadowLabels, errShadow},
			{"untraced shadow runner", bareLabels, errBare},
			{"Workers=1 call", serial.labels(), errSerial},
		}
		if errReal != nil {
			fail(fmt.Errorf("round %d: %w", rounds, errReal))
		}
		for _, o := range others {
			switch {
			case o.err != nil:
				fail(fmt.Errorf("round %d: %s: %w", rounds, o.name, o.err))
			case errReal == nil && !sameInts(o.labels, real.labels()):
				fail(fmt.Errorf("round %d: the %s's labels differ from kshape's", rounds, o.name))
			}
		}
		if _, seen := specs[si]; !seen && errCounted == nil {
			sc := &specCounts{counters: counters, k: j.k, calls: jobCalls}
			if counted.res != nil {
				sc.iterations, sc.converged = counted.res.Iterations, counted.res.Converged
			}
			specs[si] = sc
		}
		collectR = append(collectR, tCounted/tReal-1)
		traceR = append(traceR, tShadow/tBare-1)
		driftR = append(driftR, tBare/tReal-1)
		serialR = append(serialR, tSerial/tReal)
	}

	m := metricSet{}
	setLayerMetrics(&m, led, specs, len(pool[0].data[0]))
	m.set("runtime.gc_cycles", float64(gcCycles)/float64(rounds), "count")
	m.set("obs.collect_overhead_pct", 100*Median(collectR), "pct")
	m.set("bench.trace_overhead_pct", 100*Median(traceR), "pct")
	m.set("bench.shadow_drift_pct", 100*Median(driftR), "pct")
	m.set("par.speedup_vs_serial", Median(serialR), "ratio")
	unattributed := 100 * ratioOrZero(float64(led.rootSelfNS), float64(led.rootNS))
	m.set("bench.unattributed_pct", unattributed, "pct")

	fmt.Fprintf(out, "traced run: %d rounds over %d distinct jobs, 5 calls each; per traced job (self times sum over workers):\n", rounds, nspecs)
	printLedger(out, led)
	drift := 100 * Median(driftR)
	fmt.Fprintf(out, "ledger: unattributed %.2f%% (tolerance %.0f%%), shadow drift %+.1f%% (tolerance ±%.0f%%): %s\n",
		unattributed, maxUnattributedPct, drift, maxShadowDriftPct,
		verdict(unattributed <= maxUnattributedPct && drift <= maxShadowDriftPct && drift >= -maxShadowDriftPct))
	printCountCheck(out, w.kind, specs)
	m.print(out)
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}
	return result{Correct: failed == 0 && len(m.bad) == 0, Attempted: attempted, Failed: failed, Metrics: m.values}
}

// setLayerMetrics derives the span- and count-based per-layer metrics;
// m is the series length.
func setLayerMetrics(ms *metricSet, led *ledger, specs map[int]*specCounts, m int) {
	jobs := float64(led.jobs)
	perJob := func(ns int64) float64 { return float64(ns) / 1e9 / jobs }
	for _, name := range []string{"kshape.facade", "ts.znorm", "ts.shift", "dist.spectra", "dist.query",
		"dist.align_ncc", "dist.assign_ncc", "dist.nearest", "avg.extract"} {
		ms.set(name+"_s", perJob(led.self[name]), "s")
	}
	var coreSelf int64
	for name, ns := range led.self {
		if strings.HasPrefix(name, "core.") {
			coreSelf += ns
		}
	}
	ms.set("core.self_s", perJob(coreSelf), "s")
	ms.set("core.refine_s", perJob(led.incl["core.refine"]), "s")
	ms.set("core.assign_s", perJob(led.incl["core.assign"]), "s")
	ms.set("core.refine_alloc_mb", float64(led.allocs["core.refine"])/1e6/jobs, "MB")
	ms.set("core.assign_alloc_mb", float64(led.allocs["core.assign"])/1e6/jobs, "MB")
	ms.set("par.busy_s", perJob(led.parBusyNS), "s")
	ms.set("par.wait_s", perJob(led.parWaitNS), "s")
	ms.set("par.efficiency", ratioOrZero(float64(led.parBusyNS), float64(led.parBusyNS+led.parWaitNS)), "ratio")
	ms.set("avg.ms_per_extract", ratioOrZero(float64(led.self["avg.extract"])/1e6, float64(led.spans["avg.extract"])), "ms")
	nccNS := led.self["dist.assign_ncc"] + led.self["dist.align_ncc"] + led.self["dist.nearest"]
	ncc := led.calls["dist.assign_ncc"] + led.calls["dist.align_ncc"] + led.calls["dist.nearest"]
	ms.set("dist.ns_per_ncc", ratioOrZero(float64(nccNS), float64(ncc)), "ns")

	idx := make([]int, 0, len(specs))
	for i := range specs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	mean := func(f func(*specCounts) float64) float64 {
		s := 0.0
		for _, i := range idx {
			s += f(specs[i])
		}
		return ratioOrZero(s, float64(len(idx)))
	}
	ms.set("avg.extract_count", mean(func(s *specCounts) float64 { return float64(s.counters.ShapeExtractions) }), "count")
	ms.set("linalg.eigen_iters", mean(func(s *specCounts) float64 { return float64(s.counters.EigenIterations) }), "count")
	ms.set("dist.sbd_count", mean(func(s *specCounts) float64 { return float64(s.counters.SBD) }), "count")
	ms.set("fft.forward_count", mean(func(s *specCounts) float64 { return float64(s.counters.FFT) }), "count")
	ms.set("fft.inverse_count", mean(func(s *specCounts) float64 { return float64(s.counters.IFFT) }), "count")
	ms.set("core.reseeds", mean(func(s *specCounts) float64 { return float64(s.counters.Reseeds) }), "count")
	ms.set("core.iterations", mean(func(s *specCounts) float64 { return float64(s.iterations) }), "count")
	ms.set("core.converged_ratio", mean(func(s *specCounts) float64 {
		if s.converged {
			return 1
		}
		return 0
	}), "ratio")
	ms.set("dist.assign_ncc_calls", mean(func(s *specCounts) float64 { return float64(s.calls["dist.assign_ncc"]) }), "count")
	ms.set("dist.align_ncc_calls", mean(func(s *specCounts) float64 { return float64(s.calls["dist.align_ncc"]) }), "count")
	ms.set("dist.query_calls", mean(func(s *specCounts) float64 { return float64(s.calls["dist.query"]) }), "count")
	ms.set("dist.ncc_computed_mb", mean(func(s *specCounts) float64 {
		return float64(s.calls["dist.assign_ncc"]+s.calls["dist.align_ncc"]+s.calls["dist.nearest"]) * nccBytes(m) / 1e6
	}), "MB")
	extracts := mean(func(s *specCounts) float64 { return float64(s.counters.ShapeExtractions) })
	slots := mean(func(s *specCounts) float64 { return float64(s.k * s.iterations) })
	ms.set("core.extract_ratio", ratioOrZero(extracts, slots), "ratio")
}

// nccBytes is the memory one batch NCC (SBDQuery.DistanceScratch) touches
// at series length m, computed from the buffer sizes rather than measured:
// the product of two cached half-spectra written to scratch, read back by
// the inverse transform, one read and one write of the half-size work
// buffer per radix-2 stage, the l-sample correlation output, and the scan
// over its 2m-1 lags.
func nccBytes(m int) float64 {
	l := 1
	for l < 2*m-1 {
		l *= 2
	}
	half, stages := l/2, 0
	for s := half; s > 1; s /= 2 {
		stages++
	}
	return float64(16*(4*(half+1)+half*(1+2*stages)) + 8*l + 8*(2*m-1))
}

func ratioOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "OUT OF TOLERANCE"
}

// printLedger writes the per-name span totals of one traced job, largest
// self time first.
func printLedger(out io.Writer, led *ledger) {
	names := make([]string, 0, len(led.self))
	for name := range led.self {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		if led.self[names[a]] != led.self[names[b]] {
			return led.self[names[a]] > led.self[names[b]]
		}
		return names[a] < names[b]
	})
	jobs := float64(led.jobs)
	for _, name := range names {
		fmt.Fprintf(out, "  %-18s self %10.3f ms %6.1f%% of job   calls %12.1f\n", name,
			float64(led.self[name])/1e6/jobs, 100*ratioOrZero(float64(led.self[name]), float64(led.rootNS)),
			float64(led.calls[name])/jobs)
	}
}

// printCountCheck compares the program's SBD count with the NCC calls the
// shadow made. For k-Shape the counting call also runs the trace observer,
// which adds k drift SBDs per iteration; 1-NN counts one SBD per pair.
func printCountCheck(out io.Writer, kind jobKind, specs map[int]*specCounts) {
	var program, shadowNCC int64
	for _, s := range specs {
		program += s.counters.SBD
		shadowNCC += s.calls["dist.assign_ncc"] + s.calls["dist.align_ncc"] + s.calls["dist.nearest"]
		if kind == clusterJob {
			shadowNCC += int64(s.k * s.iterations)
		}
	}
	fmt.Fprintf(out, "counts: program SBD count %d, shadow NCC calls (+ drift SBDs) %d: %s\n",
		program, shadowNCC, verdict(program == shadowNCC))
}
