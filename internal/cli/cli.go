// Package cli holds the flag plumbing shared by the four command-line
// tools (kshape, kbench, knn, datagen): the -version flag, the
// -log-level/-log-json structured-logging flags, and the telemetry flags
// (-listen, -report, -timeline, -dashboard, -progress), which Start arms
// as one flight recorder. Keeping it in one place guarantees every binary
// exposes the same observability surface with the same semantics.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"

	"kshape/internal/obs"
)

// Common carries the flag values shared by every CLI. Register the
// subset a tool needs, call Parse on the FlagSet, then consult the
// fields.
type Common struct {
	// ShowVersion is set by -version: print build information and exit.
	ShowVersion bool
	// LogLevel is the -log-level value (debug, info, warn, error).
	LogLevel string
	// LogJSON switches log output from human-readable text to JSON lines.
	LogJSON bool
	// Listen is the -listen address (e.g. ":9090"); empty means no
	// telemetry server. Only present on tools that call RegisterListen.
	Listen string
	// ReportPath is the -report value: write a kshape.runreport/v1 JSON
	// flight-recorder report there after the run. Only present on tools
	// that call RegisterReport.
	ReportPath string
	// TimelinePath is the -timeline value: render the run's execution
	// timeline (workers × time SVG) there after the run.
	TimelinePath string
	// DashboardPath is the -dashboard value: write a self-contained HTML
	// run dashboard there after the run. Only present on tools that call
	// RegisterProgress.
	DashboardPath string
	// ShowProgress is set by -progress: render a live TTY progress line
	// while the run executes.
	ShowProgress bool

	// runID correlates this invocation's log records and run report; it is
	// generated on first use (Logger or Session.Finish).
	runID string
}

// RunID returns the invocation's correlation ID, generating it on first
// call so the logger and the run report agree on one value.
func (c *Common) RunID() string {
	if c.runID == "" {
		c.runID = obs.NewRunID()
	}
	return c.runID
}

// Register installs the flags every tool shares: -version, -log-level,
// and -log-json.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.ShowVersion, "version", false, "print version and build information, then exit")
	fs.StringVar(&c.LogLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.BoolVar(&c.LogJSON, "log-json", false, "emit structured logs as JSON lines instead of text")
}

// RegisterListen additionally installs -listen for the long-running
// tools (kshape, kbench) that can serve live telemetry.
func (c *Common) RegisterListen(fs *flag.FlagSet) {
	fs.StringVar(&c.Listen, "listen", "",
		"serve telemetry on this address while the run executes: /metrics (Prometheus), /progress (SSE), /healthz, /debug/pprof; implies flight recording and metric collection")
}

// HandleVersion prints build information to w when -version was given
// and reports whether the caller should exit.
func (c *Common) HandleVersion(w io.Writer, tool string) bool {
	if !c.ShowVersion {
		return false
	}
	Emit(w, "%s %s\n", tool, obs.Version())
	return true
}

// Emit renders user-facing terminal output. A failed write to the user's
// console (closed pipe, detached terminal) has no recovery path in a
// CLI, so the error is deliberately dropped here — this helper is the
// one sanctioned funnel for that. Output that can land in a file
// (reports, CSV results, profiles) must check its write errors instead;
// the errdrop analyzer enforces the split.
func Emit(w io.Writer, format string, args ...any) {
	//lint:ignore errdrop terminal-output funnel; console write failures are unactionable
	fmt.Fprintf(w, format, args...)
}

// WriteFileOr writes content whole to the file at path (os.WriteFile:
// checked write and close, mode 0o666 before the umask, as os.Create),
// or to fallback when path is empty.
func WriteFileOr(fallback io.Writer, path string, content []byte) error {
	if path == "" {
		_, err := fallback.Write(content)
		return err
	}
	return os.WriteFile(path, content, 0o666)
}

// Logger builds the tool's structured logger from the -log-level and
// -log-json flags, pre-bound with the shared schema fields (tool name
// and a fresh run_id correlating all records of this invocation).
func (c *Common) Logger(tool string, w io.Writer) (*slog.Logger, error) {
	base, err := obs.NewLogger(w, c.LogLevel, c.LogJSON)
	if err != nil {
		return nil, err
	}
	bi := obs.BuildInfo()
	logger := base.With("tool", tool, "run_id", c.RunID())
	// Surface build identity once at startup (debug level keeps the
	// default output unchanged) so any log stream can be tied back to the
	// exact binary that produced it.
	logger.Debug("build", "version", bi["version"], "revision", bi["revision"], "go", bi["go"])
	return logger, nil
}

// Session is the telemetry armed by Start for one invocation: the flight
// recorder every telemetry surface renders from, and the -listen server
// and TTY progress line that read it while the run executes. A Session
// from Start with no telemetry flag set is inert: every method is a
// no-op.
type Session struct {
	c      *Common
	tool   string
	args   []string
	logger *slog.Logger

	rec         *obs.Recorder
	srv         *obs.TelemetryServer
	prevRec     *obs.Recorder
	prevEnabled bool
	before      obs.Counters
	stopSampler func()
	stopLine    func()

	lineOnce  sync.Once
	closeOnce sync.Once
	delta     obs.Counters
}

// Start arms the invocation's telemetry when any of -listen, -report,
// -timeline, -dashboard or -progress was given: it installs one fresh
// flight recorder, enables the kernel counters, and starts the runtime
// sampler; with -listen it serves /metrics, /progress, /healthz and
// /debug/pprof, and with -progress it draws the live status
// line on w. Call Finish after the measured work to write the -report,
// -timeline and -dashboard artifacts, and defer Close for the error
// paths.
func (c *Common) Start(tool string, args []string, w io.Writer, logger *slog.Logger) (*Session, error) {
	s := &Session{c: c, tool: tool, args: args, logger: logger}
	if c.Listen == "" && c.ReportPath == "" && c.TimelinePath == "" && c.DashboardPath == "" && !c.ShowProgress {
		return s, nil
	}
	if c.Listen != "" {
		srv, err := obs.ServeTelemetry(c.Listen)
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		s.srv = srv
	}
	s.rec = obs.NewRecorder(0)
	s.prevRec = obs.SetRecorder(s.rec)
	s.prevEnabled = obs.SetEnabled(true)
	s.before = obs.ReadCounters()
	s.stopSampler = s.rec.StartSampler(0)
	if c.ShowProgress && w != nil {
		s.stopLine = startProgressLine(w, s.rec)
	}
	if logger != nil {
		logger.Debug("flight recorder armed", "report", c.ReportPath, "timeline", c.TimelinePath,
			"dashboard", c.DashboardPath, "tty_line", c.ShowProgress)
		if s.srv != nil {
			logger.Info("telemetry server listening", "addr", s.srv.Addr(), "metrics_url", s.srv.URL()+"/metrics")
		}
	}
	return s, nil
}

// URL returns the telemetry server's base URL, or "" without -listen.
func (s *Session) URL() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.URL()
}

// StopProgress finishes the TTY progress line, so output written after
// the run does not interleave with it. It is idempotent.
func (s *Session) StopProgress() {
	s.lineOnce.Do(func() {
		if s.stopLine != nil {
			s.stopLine()
		}
	})
}

// Close disarms the session without writing artifacts: it finishes the
// progress line, stops the sampler, restores the previous recorder and
// counter switch, and shuts the telemetry server down. It is idempotent.
func (s *Session) Close() {
	s.StopProgress()
	s.closeOnce.Do(func() {
		if s.rec == nil {
			return
		}
		obs.SetRecorder(s.prevRec)
		s.stopSampler()
		s.delta = obs.ReadCounters().Sub(s.before)
		obs.SetEnabled(s.prevEnabled)
		if s.srv != nil {
			if err := s.srv.Close(); err != nil && s.logger != nil {
				s.logger.Warn("telemetry server shutdown", "error", err)
			}
		}
	})
}

// Finish closes the session and writes the requested run report,
// timeline and dashboard, all rendered from the session's recorder.
func (s *Session) Finish() error {
	s.Close()
	if s.rec == nil {
		return nil
	}
	c, logger := s.c, s.logger
	rep := s.rec.Report(s.tool, c.RunID(), s.args, s.delta)
	if c.ReportPath != "" {
		if err := writeReport(c.ReportPath, rep); err != nil {
			return fmt.Errorf("run report: %w", err)
		}
		if logger != nil {
			logger.Info("run report written", "path", c.ReportPath,
				"events", len(rep.Events), "workers", len(rep.Workers),
				"runtime_samples", len(rep.RuntimeSamples))
		}
	}
	if c.TimelinePath != "" {
		if err := writeTimeline(c.TimelinePath, s.tool, rep); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		if logger != nil {
			logger.Info("timeline written", "path", c.TimelinePath)
		}
	}
	if c.DashboardPath != "" {
		if err := writeDashboard(c.DashboardPath, s.tool, rep, s.rec); err != nil {
			return fmt.Errorf("dashboard: %w", err)
		}
		if logger != nil {
			logger.Info("dashboard written", "path", c.DashboardPath)
		}
	}
	return nil
}
