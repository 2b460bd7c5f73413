package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kshape"
	"kshape/internal/obs"
)

// TestScrapeUnderLoad hammers the telemetry endpoints while a clustering
// job runs into an armed flight recorder (the race detector covers the
// interleavings in `make test-race`): every /metrics scrape must parse,
// kernel counters must be monotone non-decreasing across scrapes, each
// histogram's cumulative +Inf bucket must account for its reported count
// (no torn reads), and /healthz must answer throughout.
func TestScrapeUnderLoad(t *testing.T) {
	srv, err := obs.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.SetRecorder(obs.SetRecorder(obs.NewRecorder(0)))

	// A dataset big enough for the run to overlap many scrapes: three
	// sine-ish shape classes with per-series phase jitter.
	const n, m = 120, 256
	data := make([][]float64, n)
	for i := range data {
		class := i % 3
		row := make([]float64, m)
		for j := range row {
			x := float64(j) / float64(m) * 2 * math.Pi
			shift := float64(i%7) * 0.1
			switch class {
			case 0:
				row[j] = math.Sin(x + shift)
			case 1:
				row[j] = math.Sin(2*x + shift)
			default:
				row[j] = math.Abs(math.Sin(x + shift))
			}
		}
		data[i] = row
	}

	done := make(chan error, 1)
	go func() {
		_, err := kshape.Cluster(data, 3, kshape.Options{Seed: 1})
		done <- err
	}()

	counterRe := regexp.MustCompile(`kshape_kernel_ops_total\{kernel="(\w+)"\} (\d+)`)
	scrapes := 0
	lastCounters := map[string]int64{}
	checkScrape := func() {
		t.Helper()
		body := httpGet(t, srv.URL()+"/metrics")
		scrapes++
		for _, match := range counterRe.FindAllStringSubmatch(body, -1) {
			v, err := strconv.ParseInt(match[2], 10, 64)
			if err != nil {
				t.Fatalf("scrape %d: unparseable counter line %q", scrapes, match[0])
			}
			if prev, ok := lastCounters[match[1]]; ok && v < prev {
				t.Fatalf("scrape %d: counter %q went backward: %d -> %d", scrapes, match[1], prev, v)
			}
			lastCounters[match[1]] = v
		}
		checkHistogramConsistency(t, scrapes, body)
		if h := httpGet(t, srv.URL()+"/healthz"); !strings.Contains(h, `"status":"ok"`) {
			t.Fatalf("scrape %d: /healthz = %q", scrapes, h)
		}
	}

	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			checkScrape()
		}
	}
	checkScrape() // one quiescent scrape after the run
	if scrapes < 3 {
		t.Logf("only %d scrapes overlapped the run (fast machine); consistency checks still exercised", scrapes)
	}
	if lastCounters["sbd"] == 0 || lastCounters["fft"] == 0 {
		t.Errorf("final counters missing k-Shape kernel activity: %v", lastCounters)
	}
	if body := httpGet(t, srv.URL()+"/metrics"); !regexp.MustCompile(`kshape_phase_duration_seconds_count\{phase="iteration"\} [1-9]`).MatchString(body) {
		t.Errorf("recorder's iteration histogram empty after the run:\n%s", firstLines(body, 10))
	}
}

// checkHistogramConsistency asserts, per phase histogram in the scrape,
// that the cumulative +Inf bucket accounts for every sample the count
// line reports. Observe increments the bucket before the count and the
// snapshot reads the count before the buckets, so bucket >= count always
// holds for an untorn read; a violation means the scrape tore.
func checkHistogramConsistency(t *testing.T, scrape int, body string) {
	t.Helper()
	infRe := regexp.MustCompile(`kshape_phase_duration_seconds_bucket\{phase="(\w+)",le="\+Inf"\} (\d+)`)
	countRe := regexp.MustCompile(`kshape_phase_duration_seconds_count\{phase="(\w+)"\} (\d+)`)
	inf := map[string]int64{}
	for _, m := range infRe.FindAllStringSubmatch(body, -1) {
		v, _ := strconv.ParseInt(m[2], 10, 64)
		inf[m[1]] = v
	}
	counts := 0
	for _, m := range countRe.FindAllStringSubmatch(body, -1) {
		counts++
		c, _ := strconv.ParseInt(m[2], 10, 64)
		total, ok := inf[m[1]]
		if !ok {
			t.Fatalf("scrape %d: histogram %q has a count but no +Inf bucket", scrape, m[1])
		}
		if total < c {
			t.Fatalf("scrape %d: torn histogram %q: +Inf bucket %d < count %d", scrape, m[1], total, c)
		}
	}
	if counts == 0 {
		t.Fatalf("scrape %d: no phase histograms in scrape:\n%s", scrape, firstLines(body, 10))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return fmt.Sprint(strings.Join(lines, "\n"))
}
