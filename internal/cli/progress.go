package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kshape/internal/obs"
	"kshape/internal/plot"
)

// RegisterProgress installs the live-progress flags, -progress and
// -dashboard, on tools whose runs iterate long enough to watch (kshape,
// kbench).
func (c *Common) RegisterProgress(fs *flag.FlagSet) {
	fs.BoolVar(&c.ShowProgress, "progress", false,
		"render a live one-line progress display (iteration, inertia, churn, drift, ETA) on stderr while the run executes")
	fs.StringVar(&c.DashboardPath, "dashboard", "",
		"write a self-contained HTML run dashboard (convergence curves, phase latencies, execution timeline, counters, build identity) to this file; implies flight recording")
}

// progressLineInterval is the TTY progress line's refresh period.
const progressLineInterval = 200 * time.Millisecond

// startProgressLine launches the refresher that redraws one carriage-
// returned status line from the recorder's latest progress snapshot. The
// goroutine only reads published snapshots — never clustering state — so
// determinism is unaffected.
func startProgressLine(w io.Writer, rec *obs.Recorder) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	//lint:ignore goroutine TTY progress-line refresher lifetime, not data-path fan-out
	go func() {
		defer close(finished)
		t := time.NewTicker(progressLineInterval)
		defer t.Stop()
		wrote := false
		render := func() {
			if p, ok := rec.Progress(); ok {
				Emit(w, "\r%-78s", progressLine(p))
				wrote = true
			}
		}
		for {
			select {
			case <-t.C:
				render()
			case <-done:
				render()
				if wrote {
					Emit(w, "\n")
				}
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// progressLine formats one snapshot as a single status line.
func progressLine(p obs.Progress) string {
	switch p.Phase {
	case obs.ProgressPhaseInit:
		return fmt.Sprintf("%s starting: %d series, k=%d", p.Method, p.Series, p.K)
	case obs.ProgressPhaseDone:
		outcome := "stopped at iteration cap"
		if p.Converged {
			outcome = "converged"
		}
		return fmt.Sprintf("%s %s: %d iterations, inertia %.6g", p.Method, outcome, p.Iteration, p.Inertia)
	}
	line := fmt.Sprintf("%s iter %d/%d  inertia %.6g (%+.3g)  churn %d  drift %.3f  sil %.3f",
		p.Method, p.Iteration, p.MaxIterations, p.Inertia, p.InertiaDelta,
		p.LabelChurn, p.DriftMax, p.SilhouetteSample)
	switch {
	case p.Stalled:
		line += "  [stalled]"
	case p.Oscillating:
		line += "  [oscillating]"
	case p.ETAIterations > 0:
		line += fmt.Sprintf("  eta %d", p.ETAIterations)
	}
	return line
}

// writeDashboard renders the single-file HTML dashboard from the flight
// report (phases, timeline, counters, build identity) and the recorder's
// iteration history (convergence curves), and writes the file whole.
func writeDashboard(path, tool string, rep obs.RunReport, rec *obs.Recorder) error {
	workers, spans := TimelineSpans(rep)
	d := plot.DashboardData{
		Title:    fmt.Sprintf("%s run %s", tool, rep.RunID),
		Tool:     tool,
		RunID:    rep.RunID,
		WallNS:   rep.WallNS,
		Workers:  workers,
		Phases:   rep.Phases,
		Counters: rep.Counters,
		Timeline: spans, TimelineWorkers: workers,
		Build: rep.Build,
	}
	if snap, ok := rec.Progress(); ok {
		d.Method = snap.Method
		d.Converged = snap.Converged
	}
	d.Iterations, _ = rec.History()
	return os.WriteFile(path, plot.Dashboard(d), 0o666)
}
