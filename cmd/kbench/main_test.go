package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Error("no experiment named should error")
	}
}

func TestRunCheapFigures(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "fig2", "fig3", "fig4"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Sakoe-Chiba", "shape extraction"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable3Subset(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering sweep is slow")
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-runs", "1", "fig7"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 7a") {
		t.Errorf("output missing Figure 7a: %q", out.String())
	}
}

func TestRunWritesSVGFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a Table 2 computation")
	}
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-svgdir", dir, "fig5", "fig6"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5a.svg", "fig5b.svg", "fig6.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Errorf("%s: not an SVG", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"fig13"}, &out, &errBuf)
	if err == nil {
		t.Fatal("unknown experiment fig13 should error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig13") {
		t.Errorf("error does not name the bad experiment: %v", err)
	}
	for _, want := range []string{"table2", "fig12", "kestimation", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not list valid name %q: %v", want, err)
		}
	}
}

func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-cpuprofile", path, "fig2"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}
