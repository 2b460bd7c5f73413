package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// armRecorder installs a fresh recorder with counting off for the test
// and restores the previous recorder and counter switch at cleanup.
func armRecorder(t *testing.T) *Recorder {
	t.Helper()
	r := NewRecorder(0)
	prevRec := SetRecorder(r)
	prevOn := SetEnabled(false)
	t.Cleanup(func() {
		SetRecorder(prevRec)
		SetEnabled(prevOn)
	})
	return r
}

func TestWritePrometheusRendersAllCounters(t *testing.T) {
	armRecorder(t)
	SetEnabled(true)
	before := ReadCounters()
	Inc(CounterFFT)
	Add(CounterSBD, 41)
	Inc(CounterSBD)

	var sb strings.Builder
	WritePrometheus(&sb)
	out := sb.String()

	for _, kernel := range []string{
		"fft", "ifft", "sbd", "ed", "dtw",
		"eigen_iterations", "eigen_decompositions", "shape_extractions", "reseeds",
	} {
		if !strings.Contains(out, `kshape_kernel_ops_total{kernel="`+kernel+`"}`) {
			t.Errorf("missing counter sample for kernel %q", kernel)
		}
	}
	if !strings.Contains(out, fmt.Sprintf(`kshape_kernel_ops_total{kernel="fft"} %d`, before.FFT+1)) {
		t.Error("fft counter value not rendered")
	}
	if !strings.Contains(out, fmt.Sprintf(`kshape_kernel_ops_total{kernel="sbd"} %d`, before.SBD+42)) {
		t.Error("sbd counter value not rendered")
	}
	if !strings.Contains(out, "kshape_telemetry_enabled 1") {
		t.Error("enabled gauge not rendered")
	}
	if !strings.Contains(out, "kshape_build_info{") {
		t.Error("build info not rendered")
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	r := armRecorder(t)
	r.RecordPhaseSpan(PhaseAssign, int64(2*time.Millisecond))
	r.RecordPhaseSpan(PhaseAssign, int64(40*time.Millisecond))

	var sb strings.Builder
	WritePrometheus(&sb)
	out := sb.String()

	if !strings.Contains(out, `kshape_phase_duration_seconds_count{phase="assign"} 2`) {
		t.Errorf("assign count sample missing:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"} 2`) {
		t.Error("+Inf bucket must equal the total count")
	}
	// Cumulative buckets must be non-decreasing in le for each phase.
	var prevCum int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `kshape_phase_duration_seconds_bucket{phase="assign"`) {
			continue
		}
		fields := strings.Fields(line)
		cum, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < prevCum {
			t.Fatalf("cumulative bucket decreased: %q", line)
		}
		prevCum = cum
	}
	if prevCum != 2 {
		t.Errorf("last cumulative bucket = %d, want 2", prevCum)
	}
	// The sum is in seconds.
	if !strings.Contains(out, `kshape_phase_duration_seconds_sum{phase="assign"} 0.042`) {
		t.Errorf("sum not rendered in seconds:\n%s", out)
	}
}

func TestTelemetryServerEndpoints(t *testing.T) {
	r := armRecorder(t)
	SetEnabled(true)
	before := ReadCounters()
	Inc(CounterFFT)
	r.BeginRun("k-Shape", 30, 2, 100)
	r.PublishIteration(IterationStats{Iteration: 7, ClusterSizes: []int{10, 20}})

	srv, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		fmt.Sprintf(`kshape_kernel_ops_total{kernel="fft"} %d`, before.FFT+1),
		"kshape_active_workers 0",
		"kshape_current_iteration 7",
		`kshape_cluster_size{cluster="0"} 10`,
		`kshape_cluster_size{cluster="1"} 20`,
		`kshape_phase_duration_seconds_count{phase=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var health struct {
		Status           string  `json:"status"`
		UptimeSeconds    float64 `json:"uptime_seconds"`
		TelemetryEnabled bool    `json:"telemetry_enabled"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v (%q)", err, body)
	}
	if health.Status != "ok" || !health.TelemetryEnabled {
		t.Errorf("/healthz = %+v", health)
	}

	// /metrics is the one export of the counters, gauges and phases;
	// there is no expvar copy of them.
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", code)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestGaugeLifecycle pins the run gauges kept on the recorder: the
// active-workers count stays balanced across add/subtract pairs, the
// current iteration follows the latest progress snapshot, and a process
// without a recorder renders both as zero.
func TestGaugeLifecycle(t *testing.T) {
	r := armRecorder(t)
	r.AddActiveWorkers(3)
	r.AddActiveWorkers(2)
	if v, _, _, _ := r.scrape(); v != 5 {
		t.Errorf("active workers = %d, want 5", v)
	}
	r.AddActiveWorkers(-5)
	if v, _, _, _ := r.scrape(); v != 0 {
		t.Errorf("active workers = %d, want 0 after balanced add/subtract", v)
	}
	scrape := func() string {
		t.Helper()
		var sb strings.Builder
		if err := WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := scrape(); !strings.Contains(out, "kshape_current_iteration 0\n") ||
		!strings.Contains(out, "kshape_active_workers 0\n") {
		t.Errorf("fresh recorder gauges not zero:\n%s", out)
	}
	r.BeginRun("k-Shape", 10, 2, 100)
	r.PublishIteration(IterationStats{Iteration: 9})
	if out := scrape(); !strings.Contains(out, "kshape_current_iteration 9\n") {
		t.Errorf("current iteration does not follow the snapshot:\n%s", out)
	}
	SetRecorder(nil)
	if out := scrape(); !strings.Contains(out, "kshape_current_iteration 0\n") ||
		strings.Contains(out, "kshape_progress_") || strings.Contains(out, "kshape_cluster_size") {
		t.Errorf("no recorder: gauges must read zero and progress families stay out:\n%s", out)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	info := BuildInfo()
	for _, key := range []string{"version", "revision", "go"} {
		if info[key] == "" {
			t.Errorf("BuildInfo missing %q", key)
		}
	}
	if Version() == "" {
		t.Error("empty Version()")
	}
}
