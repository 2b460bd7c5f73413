package cli

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"kshape"
	"kshape/internal/obs"
)

// TestStartOneRecordUnderLoad drives the real arming path end to end under
// the race detector: with -listen and -report, /metrics and /progress are
// scraped while a kshape.Cluster run publishes into the armed recorder,
// and afterwards the scrape, the SSE stream and the run report must all
// tell the same story — each refine, assign and iteration span counted
// once per completed iteration, the iteration gauge and the terminal
// progress event at the run's final iteration.
func TestStartOneRecordUnderLoad(t *testing.T) {
	fs, c := newFlagSet()
	c.RegisterReport(fs)
	reportPath := filepath.Join(t.TempDir(), "run.json")
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0", "-report", reportPath}); err != nil {
		t.Fatal(err)
	}
	session, err := c.Start("test", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	const n, m = 90, 128
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, m)
		shift := float64(i%5) * 0.2
		for j := range row {
			x := float64(j)/float64(m)*2*math.Pi + shift
			switch i % 3 {
			case 0:
				row[j] = math.Sin(x)
			case 1:
				row[j] = math.Sin(3 * x)
			default:
				row[j] = math.Abs(math.Sin(x))
			}
		}
		data[i] = row
	}

	type sseOutcome struct {
		last obs.Progress
		err  error
	}
	sseDone := make(chan sseOutcome, 1)
	go func() {
		var out sseOutcome
		defer func() { sseDone <- out }()
		resp, err := http.Get(session.URL() + "/progress")
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
			payload, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
			if !ok {
				continue
			}
			var p obs.Progress
			if err := json.Unmarshal([]byte(payload), &p); err != nil {
				out.err = err
				return
			}
			out.last = p
			if p.Phase == obs.ProgressPhaseDone {
				return
			}
		}
	}()

	type clusterOutcome struct {
		res *kshape.Result
		err error
	}
	clusterDone := make(chan clusterOutcome, 1)
	go func() {
		res, err := kshape.Cluster(data, 3, kshape.Options{Seed: 4, Workers: 2})
		clusterDone <- clusterOutcome{res, err}
	}()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(session.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var out clusterOutcome
	for running := true; running; {
		select {
		case out = <-clusterDone:
			running = false
		default:
			scrape()
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	iters := int64(out.res.Iterations)

	body := scrape()
	countRe := regexp.MustCompile(`kshape_phase_duration_seconds_count\{phase="(\w+)"\} (\d+)`)
	counts := map[string]int64{}
	for _, m := range countRe.FindAllStringSubmatch(body, -1) {
		counts[m[1]], _ = strconv.ParseInt(m[2], 10, 64)
	}
	for _, phase := range []string{"refine", "assign", "iteration"} {
		if counts[phase] != iters {
			t.Errorf("/metrics %s count = %d, want %d (one per iteration)", phase, counts[phase], iters)
		}
	}
	if want := fmt.Sprintf("kshape_current_iteration %d\n", iters); !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", strings.TrimSpace(want))
	}
	if !strings.Contains(body, "kshape_active_workers 0\n") {
		t.Error("active-workers gauge not back to 0 after the run")
	}

	select {
	case sse := <-sseDone:
		if sse.err != nil {
			t.Fatalf("SSE consumer: %v", sse.err)
		}
		if sse.last.Phase != obs.ProgressPhaseDone || int64(sse.last.Iteration) != iters {
			t.Errorf("SSE terminal event = %+v, want done at iteration %d", sse.last, iters)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE consumer never saw the terminal event")
	}

	if err := session.Finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Phases {
		if want, ok := counts[p.Name]; ok && p.Count != want {
			t.Errorf("report phase %q count %d, /metrics said %d", p.Name, p.Count, want)
		}
	}
}
