package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// This file is the export half of the instrumentation layer: it renders
// the kernel counters and the active recorder's gauges, phase histograms
// and live progress in the Prometheus text exposition format and serves
// it — plus the progress stream, health and runtime/pprof endpoints —
// over HTTP so long-running clustering processes can be scraped and
// profiled mid-flight.

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): the nine kernel counters as one counter family
// labeled by kernel, then, from the active recorder, the run gauges, the
// per-cluster occupancy after the latest iteration, one histogram family
// labeled by phase with cumulative buckets in seconds, and the live
// progress family. Without a recorder the gauges and histograms read zero
// and the occupancy and progress families are left out. The exposition
// is built in memory and emitted with one checked write, so a scrape is
// either complete or reports its error.
func WritePrometheus(dst io.Writer) error {
	var w strings.Builder
	active, phases, snap, live := ActiveRecorder().scrape()
	c := ReadCounters()
	fmt.Fprintln(&w, "# HELP kshape_kernel_ops_total Kernel operation counts (FFT transforms, distance evaluations, eigensolver iterations, reseeds).")
	fmt.Fprintln(&w, "# TYPE kshape_kernel_ops_total counter")
	c.Each(func(name string, v int64) {
		fmt.Fprintf(&w, "kshape_kernel_ops_total{kernel=%q} %d\n", name, v)
	})

	fmt.Fprintln(&w, "# HELP kshape_telemetry_enabled Whether kernel counting is on.")
	fmt.Fprintln(&w, "# TYPE kshape_telemetry_enabled gauge")
	fmt.Fprintf(&w, "kshape_telemetry_enabled %d\n", boolToInt(Enabled()))

	fmt.Fprintf(&w, "# TYPE kshape_active_workers gauge\nkshape_active_workers %d\n", active)
	fmt.Fprintf(&w, "# TYPE kshape_current_iteration gauge\nkshape_current_iteration %d\n", snap.Iteration)

	if sizes := snap.ClusterSizes; len(sizes) > 0 {
		fmt.Fprintln(&w, "# HELP kshape_cluster_size Cluster occupancy after the latest completed iteration.")
		fmt.Fprintln(&w, "# TYPE kshape_cluster_size gauge")
		for j, s := range sizes {
			fmt.Fprintf(&w, "kshape_cluster_size{cluster=\"%d\"} %d\n", j, s)
		}
	}

	fmt.Fprintln(&w, "# HELP kshape_phase_duration_seconds Latency of the instrumented hot phases.")
	fmt.Fprintln(&w, "# TYPE kshape_phase_duration_seconds histogram")
	for _, h := range phases {
		cum := int64(0)
		for i, n := range h.Buckets {
			cum += n
			le := "+Inf"
			if b := BucketBound(i); b >= 0 {
				le = strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(&w, "kshape_phase_duration_seconds_bucket{phase=%q,le=%q} %d\n", h.Name, le, cum)
		}
		fmt.Fprintf(&w, "kshape_phase_duration_seconds_sum{phase=%q} %g\n", h.Name, float64(h.SumNS)/1e9)
		fmt.Fprintf(&w, "kshape_phase_duration_seconds_count{phase=%q} %d\n", h.Name, h.Count)
	}

	if live {
		writeProgressMetrics(&w, snap)
	}

	fmt.Fprintln(&w, "# HELP kshape_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(&w, "# TYPE kshape_build_info gauge")
	info := BuildInfo()
	fmt.Fprintf(&w, "kshape_build_info{version=%q,revision=%q,go=%q} 1\n",
		info["version"], info["revision"], info["go"])
	_, err := io.WriteString(dst, w.String())
	return err
}

// scrape reads, under one lock, the recorder state WritePrometheus
// renders: the active-workers gauge, the phase histograms and the latest
// progress snapshot. A nil recorder reads as idle, with no snapshot.
func (r *Recorder) scrape() (active int64, phases []HistogramSnapshot, snap Progress, live bool) {
	if r == nil {
		return 0, r.phaseSnapshots(), Progress{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeWorkers, r.phaseSnapshots(), r.progress.snap, r.progress.snap.Seq > 0
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeProgressMetrics renders the live-progress gauge family from the
// recorder's latest snapshot.
func writeProgressMetrics(w *strings.Builder, p Progress) {
	fmt.Fprintln(w, "# HELP kshape_progress_info Live run identity; the value is always 1.")
	fmt.Fprintln(w, "# TYPE kshape_progress_info gauge")
	fmt.Fprintf(w, "kshape_progress_info{method=%q,phase=%q} 1\n", p.Method, p.Phase)
	scalar := func(name, help string, v string) {
		fmt.Fprintf(w, "# HELP kshape_progress_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kshape_progress_%s gauge\n", name)
		fmt.Fprintf(w, "kshape_progress_%s %s\n", name, v)
	}
	ints := func(name, help string, v int64) { scalar(name, help, strconv.FormatInt(v, 10)) }
	floats := func(name, help string, v float64) {
		scalar(name, help, strconv.FormatFloat(v, 'g', -1, 64))
	}
	ints("seq", "Snapshot sequence number of the live run.", p.Seq)
	ints("iteration", "Last completed refinement iteration.", int64(p.Iteration))
	ints("max_iterations", "Configured iteration cap.", int64(p.MaxIterations))
	floats("inertia", "Objective value after the last iteration.", p.Inertia)
	floats("inertia_delta", "Inertia change versus the previous iteration.", p.InertiaDelta)
	ints("label_churn", "Series that changed cluster in the last iteration.", int64(p.LabelChurn))
	floats("centroid_drift_max", "Largest per-cluster centroid drift (1 - lag-0 NCC of the centroid before and after refinement) of the last iteration.", p.DriftMax)
	floats("silhouette_sample", "Sampled simplified-silhouette estimate of the last iteration.", p.SilhouetteSample)
	ints("eta_iterations", "Estimated iterations to convergence (-1 unknown).", int64(p.ETAIterations))
	ints("stalled", "Whether churn is flat and nonzero (1) or not (0).", int64(boolToInt(p.Stalled)))
	ints("oscillating", "Whether churn shows a period-2 cycle (1) or not (0).", int64(boolToInt(p.Oscillating)))
	ints("converged", "Whether the run reached its fixed point (1) or not (0).", int64(boolToInt(p.Converged)))
	if len(p.ClusterSizes) > 0 {
		fmt.Fprintln(w, "# HELP kshape_progress_cluster_size Live cluster occupancy of the in-flight run.")
		fmt.Fprintln(w, "# TYPE kshape_progress_cluster_size gauge")
		for j, s := range p.ClusterSizes {
			fmt.Fprintf(w, "kshape_progress_cluster_size{cluster=\"%d\"} %d\n", j, s)
		}
	}
}

// MetricsHandler serves WritePrometheus output.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A scrape whose connection died mid-write has no recovery path;
		// the next scrape starts fresh.
		_ = WritePrometheus(w)
	})
}

// NewTelemetryMux builds the HTTP surface served by -listen: Prometheus
// metrics on /metrics, the live-progress SSE stream on /progress, a
// liveness probe on /healthz, and the runtime profiler under
// /debug/pprof/.
func NewTelemetryMux() *http.ServeMux {
	started := time.Now()
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/progress", ProgressHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Probe responses are best-effort: a prober that hung up mid-read
		// will simply retry.
		_, _ = fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.3f,\"telemetry_enabled\":%v,\"version\":%q}\n",
			time.Since(started).Seconds(), Enabled(), Version())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// TelemetryServer is a running telemetry HTTP server.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeTelemetry binds addr (host:port; port 0 picks a free one) and
// serves the telemetry mux on it until Close. It does not flip the
// collection switch — callers decide whether serving implies measuring
// (the CLIs enable collection for the duration of a -listen run).
func ServeTelemetry(addr string) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listener: %w", err)
	}
	srv := &http.Server{Handler: NewTelemetryMux()}
	// Serve returns ErrServerClosed on Close; nothing clustering-related
	// flows through this goroutine, so determinism is unaffected.
	//lint:ignore goroutine telemetry HTTP server lifetime, not data-path fan-out
	go srv.Serve(ln)
	return &TelemetryServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (with the real port when :0 was asked).
func (t *TelemetryServer) Addr() string { return t.ln.Addr().String() }

// URL returns the server's base URL.
func (t *TelemetryServer) URL() string { return "http://" + t.Addr() }

// Close stops the server and releases the listener.
func (t *TelemetryServer) Close() error { return t.srv.Close() }
