package plot

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"kshape/internal/obs"
)

// This file renders the single-file HTML run dashboard: the convergence
// and quality trajectory (inertia, churn, centroid drift, sampled
// silhouette), phase latency quantiles, the per-worker execution
// timeline, kernel counters, and build identity — all inline (CSS and
// SVG embedded, no external assets), so the file can be archived with a
// run or attached to a CI build and opened anywhere. Like every renderer
// in this package the output is deterministic: identical input produces
// identical bytes, and a golden test pins them.

// DashboardData is everything Dashboard renders. All fields are
// optional; sections without data are omitted.
type DashboardData struct {
	// Title heads the page; empty means "kshape run dashboard".
	Title string
	// Tool, Method and RunID identify the run (the CLI binary, the
	// clustering method, and the obs run ID correlating logs and metrics).
	Tool   string
	Method string
	RunID  string
	// Converged and WallNS summarize the outcome.
	Converged bool
	WallNS    int64
	// Workers is the pool size the run used (0 means unknown).
	Workers int
	// Iterations is the per-iteration quality trajectory.
	Iterations []obs.IterationStats
	// Phases carries the phase latency quantiles of the run.
	Phases []obs.PhaseStats
	// Counters is the kernel-counter delta over the run.
	Counters obs.Counters
	// Timeline, with TimelineWorkers lanes, is the per-worker Gantt chart
	// input (see Timeline); empty means no timeline section.
	Timeline        []TimelineSpan
	TimelineWorkers int
	// Build is the build-identity map (obs.BuildInfo), rendered sorted.
	Build map[string]string
}

// Dashboard renders d as a self-contained HTML document.
func Dashboard(d DashboardData) []byte {
	var b strings.Builder
	title := d.Title
	if title == "" {
		title = "kshape run dashboard"
	}
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>%s</title>\n", html.EscapeString(title))
	b.WriteString("<style>\n" + dashboardCSS + "</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))

	writeSummary(&b, d)

	if len(d.Iterations) > 0 {
		b.WriteString("<h2>Convergence</h2>\n<div class=\"charts\">\n")
		x := make([]float64, len(d.Iterations))
		inertia := make([]float64, len(d.Iterations))
		churn := make([]float64, len(d.Iterations))
		drift := make([]float64, len(d.Iterations))
		sil := make([]float64, len(d.Iterations))
		haveDrift, haveSil := false, false
		for i, st := range d.Iterations {
			x[i] = float64(st.Iteration)
			inertia[i] = st.Inertia
			churn[i] = float64(st.LabelChurn)
			drift[i] = st.DriftMax()
			sil[i] = st.SilhouetteSample
			if len(st.CentroidDrift) > 0 {
				haveDrift = true
			}
			//lint:ignore floatcmp exact zero means the field was never populated
			if st.SilhouetteSample != 0 {
				haveSil = true
			}
		}
		writeChart(&b, Lines("Inertia per iteration", "iteration", "inertia", x, map[string][]float64{"inertia": inertia}))
		writeChart(&b, Lines("Label churn per iteration", "iteration", "series reassigned", x, map[string][]float64{"churn": churn}))
		if haveDrift {
			writeChart(&b, Lines("Centroid drift per iteration", "iteration", "max centroid drift", x, map[string][]float64{"drift (max)": drift}))
		}
		if haveSil {
			writeChart(&b, Lines("Sampled silhouette per iteration", "iteration", "silhouette", x, map[string][]float64{"silhouette": sil}))
		}
		b.WriteString("</div>\n")
		writeIterationTable(&b, d.Iterations)
	}

	if len(d.Phases) > 0 {
		b.WriteString("<h2>Phase latency</h2>\n<div class=\"charts\">\n")
		writeChart(&b, phaseLatencySVG(d.Phases))
		b.WriteString("</div>\n")
		writePhaseTable(&b, d.Phases)
	}

	if len(d.Timeline) > 0 {
		b.WriteString("<h2>Execution timeline</h2>\n<div class=\"charts\">\n")
		writeChart(&b, Timeline("Per-worker execution timeline", d.TimelineWorkers, d.WallNS, d.Timeline))
		b.WriteString("</div>\n")
	}

	if d.Counters.Total() > 0 {
		b.WriteString("<h2>Kernel counters</h2>\n<table>\n<tr><th>kernel</th><th>operations</th></tr>\n")
		d.Counters.Each(func(name string, v int64) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td class=\"num\">%d</td></tr>\n", html.EscapeString(name), v)
		})
		b.WriteString("</table>\n")
	}

	if len(d.Build) > 0 {
		b.WriteString("<h2>Build</h2>\n<table>\n<tr><th>key</th><th>value</th></tr>\n")
		keys := make([]string, 0, len(d.Build))
		for k := range d.Build {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td></tr>\n", html.EscapeString(k), html.EscapeString(d.Build[k]))
		}
		b.WriteString("</table>\n")
	}

	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

// dashboardCSS is the entire inline stylesheet — deliberately small, no
// external fonts or scripts.
const dashboardCSS = `body{font-family:sans-serif;margin:24px;color:#111;max-width:1100px}
h1{font-size:20px;margin-bottom:4px}
h2{font-size:15px;margin:24px 0 8px;border-bottom:1px solid #ddd;padding-bottom:4px}
.meta{color:#555;font-size:12px;margin-bottom:12px}
.cards{display:flex;flex-wrap:wrap;gap:12px;margin:12px 0}
.card{border:1px solid #ddd;border-radius:6px;padding:8px 14px;min-width:110px}
.card .v{font-size:18px;font-weight:bold}
.card .l{font-size:11px;color:#555}
.charts{display:flex;flex-wrap:wrap;gap:12px}
.charts svg{border:1px solid #eee}
table{border-collapse:collapse;font-size:12px;margin:8px 0}
th,td{border:1px solid #ddd;padding:3px 8px;text-align:left}
td.num{text-align:right;font-variant-numeric:tabular-nums}
.ok{color:#059669}.bad{color:#dc2626}
`

// writeSummary emits the run-identity line and the headline cards.
func writeSummary(b *strings.Builder, d DashboardData) {
	meta := make([]string, 0, 4)
	if d.Tool != "" {
		meta = append(meta, "tool "+d.Tool)
	}
	if d.Method != "" {
		meta = append(meta, "method "+d.Method)
	}
	if d.RunID != "" {
		meta = append(meta, "run "+d.RunID)
	}
	if d.Workers > 0 {
		meta = append(meta, fmt.Sprintf("%d workers", d.Workers))
	}
	if len(meta) > 0 {
		fmt.Fprintf(b, "<div class=\"meta\">%s</div>\n", html.EscapeString(strings.Join(meta, " · ")))
	}
	card := func(label, value, class string) {
		fmt.Fprintf(b, "<div class=\"card\"><div class=\"v %s\">%s</div><div class=\"l\">%s</div></div>\n",
			class, html.EscapeString(value), html.EscapeString(label))
	}
	b.WriteString("<div class=\"cards\">\n")
	if d.Converged {
		card("outcome", "converged", "ok")
	} else {
		card("outcome", "not converged", "bad")
	}
	if n := len(d.Iterations); n > 0 {
		last := d.Iterations[n-1]
		card("iterations", fmt.Sprintf("%d", last.Iteration), "")
		card("final inertia", fmt.Sprintf("%.6g", last.Inertia), "")
		card("final churn", fmt.Sprintf("%d", last.LabelChurn), "")
		//lint:ignore floatcmp exact zero means the field was never populated
		if last.SilhouetteSample != 0 {
			card("silhouette (sampled)", fmt.Sprintf("%.3f", last.SilhouetteSample), "")
		}
	}
	if d.WallNS > 0 {
		card("wall time", formatNS(d.WallNS), "")
	}
	b.WriteString("</div>\n")
}

// writeChart embeds one SVG document inline (SVG is valid HTML5 content).
func writeChart(b *strings.Builder, svg []byte) {
	b.Write(svg)
}

// writeIterationTable emits the full per-iteration trajectory.
func writeIterationTable(b *strings.Builder, iters []obs.IterationStats) {
	b.WriteString("<table>\n<tr><th>iter</th><th>inertia</th><th>Δ inertia</th><th>churn</th><th>reseeds</th><th>drift max</th><th>silhouette</th><th>refine</th><th>assign</th></tr>\n")
	for _, st := range iters {
		fmt.Fprintf(b, "<tr><td class=\"num\">%d</td><td class=\"num\">%.6g</td><td class=\"num\">%.6g</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%.4f</td><td class=\"num\">%.4f</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
			st.Iteration, st.Inertia, st.InertiaDelta, st.LabelChurn, st.Reseeds,
			st.DriftMax(), st.SilhouetteSample, formatNS(st.RefineNS), formatNS(st.AssignNS))
	}
	b.WriteString("</table>\n")
}

// writePhaseTable emits the phase quantile table.
func writePhaseTable(b *strings.Builder, phases []obs.PhaseStats) {
	b.WriteString("<table>\n<tr><th>phase</th><th>count</th><th>total</th><th>p50</th><th>p95</th><th>p99</th></tr>\n")
	for _, p := range phases {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(p.Name), p.Count, formatNS(p.SumNS),
			formatNS(int64(p.P50NS)), formatNS(int64(p.P95NS)), formatNS(int64(p.P99NS)))
	}
	b.WriteString("</table>\n")
}

// phaseLatencySVG renders the phase quantiles as grouped horizontal bars
// (p50/p95/p99 per phase, log-free linear scale normalized to the
// largest p99). Phases render in the order given, which the run report
// already emits deterministically.
func phaseLatencySVG(phases []obs.PhaseStats) []byte {
	const (
		w        = 480
		rowH     = 46
		barH     = 10
		top      = 40
		left     = 110
		right    = 70
		bottom   = 16
		quantile = 3
	)
	h := top + rowH*len(phases) + bottom
	maxNS := 1.0
	for _, p := range phases {
		if p.P99NS > maxNS {
			maxNS = p.P99NS
		}
	}
	b := newSVG(w, h)
	b.text(float64(w)/2, 20, "middle", "Phase latency quantiles (p50 / p95 / p99)")
	plotW := float64(w - left - right)
	px := func(v float64) float64 { return float64(left) + v/maxNS*plotW }
	for pi, p := range phases {
		y := float64(top + pi*rowH)
		b.text(float64(left)-8, y+float64(quantile*barH)/2+4, "end", p.Name)
		qs := [quantile]struct {
			v float64
			c string
		}{
			{p.P50NS, palette[0]}, {p.P95NS, palette[3]}, {p.P99NS, palette[1]},
		}
		for qi, q := range qs {
			by := y + float64(qi*barH)
			bw := px(q.v) - float64(left)
			if bw < 0.5 {
				bw = 0.5
			}
			b.rect(float64(left), by, bw, barH-2, q.c, p.Name+" "+formatNS(int64(q.v)))
			b.text(float64(left)+bw+4, by+float64(barH)-3, "start", formatNS(int64(q.v)))
		}
	}
	return b.finish()
}
