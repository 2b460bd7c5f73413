package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kshape"
	"kshape/internal/obs"
)

// TestProgressScrapeUnderLoad exercises the live-progress surface while a
// clustering job runs (the race detector covers the interleavings in
// `make test-race`): /metrics must expose parseable kshape_progress_*
// gauges whose sequence number never goes backward, the /progress SSE
// stream must deliver per-iteration JSON snapshots ending in the terminal
// one, and none of it may disturb the run.
func TestProgressScrapeUnderLoad(t *testing.T) {
	defer obs.SetRecorder(obs.SetRecorder(obs.NewRecorder(0)))
	srv, err := obs.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Enough series for the run to overlap many scrapes.
	const n, m = 120, 256
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, m)
		shift := float64(i%7) * 0.1
		for j := range row {
			x := float64(j) / float64(m) * 2 * math.Pi
			switch i % 3 {
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

	// An SSE consumer runs for the whole job and reports every decoded
	// snapshot; it exits on the terminal event. The job starts only once
	// the stream is connected, so the stream overlaps the whole run, and
	// from its second iteration on the job waits until the consumer has
	// decoded an iterating snapshot, so the stream has one to deliver
	// before the terminal one however fast the machine runs the job.
	sawIteration := make(chan struct{})
	var sawOnce sync.Once
	type sseOutcome struct {
		events int
		last   obs.Progress
		err    error
	}
	sseDone := make(chan sseOutcome, 1)
	connected := make(chan struct{})
	go func() {
		var out sseOutcome
		defer func() { sseDone <- out }()
		resp, err := http.Get(srv.URL() + "/progress")
		close(connected)
		if err != nil {
			out.err = err
			return
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				out.err = err
				return
			}
			line = strings.TrimRight(line, "\n")
			if !strings.HasPrefix(line, "data: ") {
				continue // heartbeats, blank separators
			}
			var p obs.Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				out.err = err
				return
			}
			if p.Seq <= out.last.Seq {
				t.Errorf("SSE sequence went backward: %d after %d", p.Seq, out.last.Seq)
			}
			out.events++
			out.last = p
			if p.Phase == obs.ProgressPhaseIterating {
				sawOnce.Do(func() { close(sawIteration) })
			}
			if p.Phase == obs.ProgressPhaseDone {
				return
			}
		}
	}()

	<-connected
	clusterDone := make(chan error, 1)
	iterations := 0
	go func() {
		res, err := kshape.Cluster(data, 3, kshape.Options{Seed: 1, OnIteration: func(st kshape.IterationStats) {
			if st.Iteration >= 2 {
				select {
				case <-sawIteration:
				case <-time.After(10 * time.Second): // the events check below reports it
				}
			}
		}})
		if err == nil {
			iterations = res.Iterations
		}
		clusterDone <- err
	}()

	seqRe := regexp.MustCompile(`kshape_progress_seq (\d+)`)
	var lastSeq int64
	scrapes, progressScrapes := 0, 0
	checkScrape := func() {
		t.Helper()
		body := httpGet(t, srv.URL()+"/metrics")
		scrapes++
		m := seqRe.FindStringSubmatch(body)
		if m == nil {
			return // no snapshot published yet
		}
		progressScrapes++
		seq, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil || seq < lastSeq {
			t.Fatalf("scrape %d: progress seq %q after %d (err=%v)", scrapes, m[1], lastSeq, err)
		}
		lastSeq = seq
		// The init-phase snapshot has no cluster sizes yet, so that
		// family is asserted on the final scrape instead.
		for _, want := range []string{
			`kshape_progress_info{method="k-Shape"`,
			"kshape_progress_iteration ",
			"kshape_progress_inertia ",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("scrape %d: missing %q alongside the seq gauge", scrapes, want)
			}
		}
	}

	running := true
	for running {
		select {
		case err := <-clusterDone:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			checkScrape()
		}
	}
	checkScrape() // quiescent scrape: the terminal snapshot stays up
	if iterations < 2 {
		t.Fatalf("run took %d iterations; the stream handshake needs at least 2", iterations)
	}
	if progressScrapes == 0 {
		t.Error("no scrape observed progress gauges")
	}
	body := httpGet(t, srv.URL()+"/metrics")
	if !strings.Contains(body, `phase="done"`) || !strings.Contains(body, "kshape_progress_converged 1") {
		t.Errorf("final scrape lacks the terminal snapshot:\n%s", firstLines(body, 10))
	}
	if !strings.Contains(body, `kshape_progress_cluster_size{cluster="0"}`) {
		t.Error("final scrape lacks the cluster-size gauge family")
	}

	select {
	case out := <-sseDone:
		if out.err != nil {
			t.Fatalf("SSE consumer: %v", out.err)
		}
		if out.events < 2 {
			t.Errorf("SSE delivered %d events; want at least iterating + done", out.events)
		}
		if out.last.Phase != obs.ProgressPhaseDone || !out.last.Converged {
			t.Errorf("SSE terminal event = %+v", out.last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE consumer never saw the terminal event")
	}
}
