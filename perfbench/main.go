// Command perfbench is the repository's benchmark. It runs one named
// workload of k-Shape clustering or SBD 1-NN classification through the
// public kshape API as a closed loop (one caller, jobs back to back),
// checks every output, and prints the end-to-end metrics, or, with
// --trace 1, re-executes the jobs through a traced shadow runner and
// prints the per-layer ledger. The last line of standard output is the
// result as one JSON object. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setUpRepeats is how many times a run sets up; setup_s is the median.
const setUpRepeats = 9

// Run-length guards: a timed run keeps going past --seconds until every
// job has been called minPasses times, but never past maxLoopSeconds,
// which keeps a run inside three minutes on a slow machine.
const (
	minPasses      = 2
	maxLoopSeconds = 120.0
)

// timedWorkers is Options.Workers and GOMAXPROCS in the timed run, which
// is pinned to one CPU together with its reference kernel (see reference).
// The benchmark's host is a few vCPUs shared with other tenants, each
// slowed by the neighbours' load on its own schedule: a second worker
// measured that load, and moved job times by up to 60% from one run to
// the next. The traced run, which has no bounds, uses runtime.NumCPU()
// workers, so the par layer is measured there.
const timedWorkers = 1

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects a run's metrics; a value that comes out NaN or
// infinite is recorded as 0 and marks the run incorrect.
type metricSet struct {
	values map[string]metric
	bad    []string
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.values == nil {
		m.values = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.bad = append(m.bad, name)
		v = 0
	}
	m.values[name] = metric{v, unit}
}

// print writes every metric as "name value unit", sorted by name.
func (m *metricSet) print(out io.Writer) {
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", name, m.values[name].Value, m.values[name].Unit)
	}
	if len(m.bad) > 0 {
		fmt.Fprintf(out, "not measurable (reported as 0): %s\n", strings.Join(m.bad, ", "))
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: "+workloadNames())
	seed := flags.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flags.Float64("seconds", 20, "how long the measured loop runs")
	trace := flags.Int("trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}

	workers, pinned := runtime.NumCPU(), "not pinned"
	if *trace == 0 {
		workers = timedWorkers
		runtime.GOMAXPROCS(timedWorkers)
		if cpu, err := pinToOneCPU(); err != nil {
			pinned = "not pinned: " + err.Error()
		} else {
			pinned = fmt.Sprintf("pinned to CPU %d", cpu)
		}
	}
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.params)
	fmt.Fprintf(stdout, "run: seed=%d closed loop, 1 caller, Workers=%d, GOMAXPROCS=%d, NumCPU=%d, %s, %s, source %s\n",
		*seed, workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), pinned, runtime.Version(), sourceDigest("."))
	var ref *reference
	if *trace == 0 {
		var err error
		if ref, err = startReference(w.ref); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer ref.close()
	}
	pool, setUpTimes, err := setUp(w, *seed, workers, ref)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rng := rand.New(rand.NewSource(*seed))
	var res result
	if *trace == 0 {
		res, err = timed(stdout, w, pool, setUpTimes, *seconds, workers, rng, ref)
	} else {
		res = traced(stdout, w, pool, *seconds, workers, rng)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp generates the workload's job pool from seed and runs one checked
// warm-up job, setUpRepeats times, returning the last pool and the time of
// each set-up (generation plus warm-up call), scaled by ref unless ref is
// nil.
func setUp(w *workload, seed int64, workers int, ref *reference) ([]job, []float64, error) {
	var pool []job
	times := make([]float64, setUpRepeats)
	for r := range times {
		var before, after float64
		var err error
		if ref != nil {
			if before, err = ref.time(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		pool = w.gen(seed)
		out, err := call(w.kind, &pool[0], workers, false)
		times[r] = time.Since(t0).Seconds()
		if ref != nil {
			var refErr error
			if after, refErr = ref.time(); refErr != nil {
				return nil, nil, refErr
			}
			times[r] = ref.scaled(times[r], before, after)
		}
		if err == nil {
			_, err = check(w.kind, &pool[0], out, rand.New(rand.NewSource(seed)))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return pool, times, nil
}

// timed is the --trace 0 run: passes over the pool, jobs back to back,
// until the time is up, every output checked. The reference kernel runs
// after every call, untimed by the call, and each call's wall time is
// scaled by the kernel's times before and after it (see reference).
// job_s_p50 is the median over the pool's distinct jobs of each job's
// median scaled call time, so every input weighs the same; job_s_p90 is
// the p90 over all calls, which a run makes enough of to put ten beyond
// it.
func timed(out io.Writer, w *workload, pool []job, setUpTimes []float64, seconds float64, workers int, rng *rand.Rand, ref *reference) (result, error) {
	hs := newHeapStats()
	scaled := make([][]float64, len(pool))
	var calls []float64
	var allocBytes uint64
	quality := map[int]float64{}
	attempted, failed := 0, 0
	var firstErr error
	start := time.Now()
	before, err := ref.time()
	if err != nil {
		return result{}, err
	}
	refTimes := []float64{before}
	for i := 0; ; i++ {
		if el := time.Since(start).Seconds(); (el >= seconds && i >= minPasses*len(pool)) || el >= maxLoopSeconds {
			break
		}
		pi := i % len(pool)
		j := &pool[pi]
		a0, _ := hs.read()
		t0 := time.Now()
		res, err := call(w.kind, j, workers, false)
		d := time.Since(t0).Seconds()
		a1, _ := hs.read()
		after, refErr := ref.time()
		if refErr != nil {
			return result{}, refErr
		}
		sd := ref.scaled(d, before, after)
		scaled[pi] = append(scaled[pi], sd)
		calls = append(calls, sd)
		before = after
		refTimes = append(refTimes, after)
		attempted++
		allocBytes += a1 - a0
		var q float64
		if err == nil {
			q, err = check(w.kind, j, res, rng)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("job %d: %w", i, err)
			}
			continue
		}
		if _, seen := quality[pi]; !seen {
			quality[pi] = q
		}
	}

	// Quality is the mean over the distinct pool entries, each scored once,
	// so it does not depend on how many calls the run fitted in.
	var qs []float64
	for pi := range pool {
		if q, ok := quality[pi]; ok {
			qs = append(qs, q)
		}
	}
	jobS := make([]float64, len(pool))
	var series int
	total := 0.0
	for pi := range pool {
		jobS[pi] = Median(scaled[pi])
		series += w.seriesPerJob(&pool[pi])
		total += jobS[pi]
	}
	m := metricSet{}
	m.set("setup_s", Median(setUpTimes), "s")
	m.set("job_s_p50", Median(jobS), "s")
	m.set("job_s_p90", Percentile(calls, 0.9), "s")
	m.set("series_per_s", float64(series)/total, "1/s")
	m.set("alloc_mb_per_job", float64(allocBytes)/1e6/float64(attempted), "MB")
	m.set("quality", Mean(qs), "ratio")
	qualityOK := Mean(qs) >= runQualityFloor(w.kind)

	fmt.Fprintf(out, "timed run: %d calls (%.1f passes over %d jobs) in %.1f s; times are seconds at the %s reference's idle-host time (%.2g s); a job's time is the median over its calls; setup_s is the median of %d set-ups; quality is the mean %s over %d distinct jobs\n",
		attempted, float64(attempted)/float64(len(pool)), len(pool), time.Since(start).Seconds(), ref.name, ref.seconds, len(setUpTimes), qualityName(w.kind), len(qs))
	fmt.Fprintf(out, "host load: the reference ran in %.3g s (median of %d runs), %.2f× its idle-host time\n",
		Median(refTimes), len(refTimes), Median(refTimes)/ref.seconds)
	if !TailSupported(len(calls), 0.9) {
		fmt.Fprintf(out, "warning: %d calls leave fewer than %d beyond the p90\n", len(calls), minTail)
	}
	m.print(out)
	fmt.Fprintf(out, "  %-26s %14.6g ratio (%d of %d calls)\n", "failed_ratio", float64(failed)/float64(attempted), failed, attempted)
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}
	if !qualityOK {
		fmt.Fprintf(out, "quality %.3f is below the run floor %.2f\n", Mean(qs), runQualityFloor(w.kind))
	}
	return result{Correct: failed == 0 && qualityOK && len(m.bad) == 0, Attempted: attempted, Failed: failed, Metrics: m.values}, nil
}

func qualityName(kind jobKind) string {
	if kind == knnJob {
		return "1-NN accuracy"
	}
	return "Rand Index"
}

// sourceDigest identifies the measured code when the checkout carries no
// version-control metadata: a SHA-256 over the Go sources and module files
// under dir, hidden directories skipped.
func sourceDigest(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
