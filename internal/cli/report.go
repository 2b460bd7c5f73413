package cli

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"kshape/internal/obs"
	"kshape/internal/plot"
)

// RegisterReport installs the flight-recorder flags, -report and
// -timeline, on tools that support per-run reports (kshape, kbench, knn).
func (c *Common) RegisterReport(fs *flag.FlagSet) {
	fs.StringVar(&c.ReportPath, "report", "",
		"write a self-contained JSON run report ("+obs.RunReportSchema+") to this file: phase histograms, per-worker busy/wait attribution, runtime samples, the event timeline, and kbench's per-run records")
	fs.StringVar(&c.TimelinePath, "timeline", "",
		"render the run's execution timeline (workers × time SVG) to this file; implies flight recording")
}

// writeReport writes the JSON run report with checked writes.
func writeReport(path string, rep obs.RunReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		_ = f.Close() // surface the write error, not the close error
		return err
	}
	return f.Close()
}

// writeTimeline renders the run report's event window as an SVG Gantt
// chart and writes it with checked writes.
func writeTimeline(path, tool string, rep obs.RunReport) error {
	workers, spans := TimelineSpans(rep)
	title := fmt.Sprintf("%s run %s — %d workers", tool, rep.RunID, workers)
	svg := plot.Timeline(title, workers, rep.WallNS, spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(svg); err != nil {
		_ = f.Close() // surface the write error, not the close error
		return err
	}
	return f.Close()
}

// phaseInterval is one completed phase span on the recorder clock.
type phaseInterval struct {
	name       string
	start, end int64
}

// TimelineSpans converts a run report's event window into timeline spans:
// phase spans land in the phase lane (worker -1) and chunk events in
// their worker's lane, colored by the innermost phase whose interval
// contains the chunk's midpoint — chunks don't know their phase (the
// pool is phase-agnostic), so attribution is temporal. Chunks outside
// any recorded phase fall back to the "pool" color.
func TimelineSpans(rep obs.RunReport) (workers int, spans []plot.TimelineSpan) {
	var phases []phaseInterval
	for _, e := range rep.Events {
		if e.Kind == obs.EventPhaseExit.String() && e.Phase != "" {
			phases = append(phases, phaseInterval{e.Phase, e.AtNS - e.DurNS, e.AtNS})
		}
	}
	// Sorting by width lets the containment scan stop at the first
	// (narrowest) match: the innermost enclosing phase.
	sort.SliceStable(phases, func(i, j int) bool {
		return phases[i].end-phases[i].start < phases[j].end-phases[j].start
	})
	workers = 1
	for _, e := range rep.Events {
		switch e.Kind {
		case obs.EventPhaseExit.String():
			spans = append(spans, plot.TimelineSpan{
				Worker: -1, Phase: e.Phase, StartNS: e.AtNS - e.DurNS, DurNS: e.DurNS,
			})
		case obs.EventChunk.String():
			if e.Worker+1 > workers {
				workers = e.Worker + 1
			}
			mid := e.AtNS + e.DurNS/2
			name := "pool"
			for _, p := range phases {
				if mid >= p.start && mid <= p.end {
					name = p.name
					break
				}
			}
			spans = append(spans, plot.TimelineSpan{
				Worker: e.Worker, Phase: name, StartNS: e.AtNS, DurNS: e.DurNS,
			})
		}
	}
	return workers, spans
}
