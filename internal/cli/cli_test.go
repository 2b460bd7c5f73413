package cli

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"kshape/internal/obs"
)

func newFlagSet() (*flag.FlagSet, *Common) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var c Common
	c.Register(fs)
	c.RegisterListen(fs)
	return fs, &c
}

func TestHandleVersion(t *testing.T) {
	fs, c := newFlagSet()
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !c.HandleVersion(&buf, "kshape") {
		t.Fatal("-version should request exit")
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kshape ") || !strings.Contains(out, "go1.") {
		t.Errorf("version output = %q", out)
	}

	fs2, c2 := newFlagSet()
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c2.HandleVersion(&buf, "kshape") {
		t.Error("exit requested without -version")
	}
}

func TestLoggerLevelAndFields(t *testing.T) {
	fs, c := newFlagSet()
	if err := fs.Parse([]string{"-log-level", "warn"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger, err := c.Logger("knn", &buf)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("suppressed")
	logger.Warn("shown")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Error("info record emitted at warn level")
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "tool=knn") || !strings.Contains(out, "run_id=") {
		t.Errorf("warn record missing shared fields: %q", out)
	}

	fs3, c3 := newFlagSet()
	if err := fs3.Parse([]string{"-log-level", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Logger("knn", &buf); err == nil {
		t.Error("bad -log-level accepted")
	}
}

// TestStartTelemetryServesAndRestores pins Start's arming contract for
// -listen: it serves the scrape surface, enables counting, installs one
// recorder, and Close restores both switches; with no telemetry flag
// Start arms nothing.
func TestStartTelemetryServesAndRestores(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	fs, c := newFlagSet()
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	session, err := c.Start("test", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session.URL() == "" {
		t.Fatal("no server URL for -listen")
	}
	if !obs.Enabled() {
		t.Error("-listen should enable collection")
	}
	if obs.ActiveRecorder() == nil {
		t.Error("-listen should arm the flight recorder")
	}
	resp, err := http.Get(session.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "kshape_kernel_ops_total") {
		t.Errorf("/metrics missing counter family: %q", body)
	}
	session.Close()
	if obs.Enabled() {
		t.Error("Close must restore the collection switch")
	}
	if obs.ActiveRecorder() != nil {
		t.Error("Close must uninstall the recorder")
	}
	session.Close() // idempotent

	fs2, c2 := newFlagSet()
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	session2, err := c2.Start("test", nil, nil, nil)
	if err != nil || session2.URL() != "" || obs.ActiveRecorder() != nil {
		t.Errorf("no telemetry flag: url=%q recorder=%v err=%v", session2.URL(), obs.ActiveRecorder(), err)
	}
	if err := session2.Finish(); err != nil {
		t.Error(err)
	}
}
