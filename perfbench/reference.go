package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// A reference is a fixed kernel, timed next to every measured call. The
// benchmark's host is a few vCPUs shared with other tenants, whose load
// slows a call by up to 60% for stretches of seconds to minutes; it slows a
// kernel with the same inner loop by about as much. So the timed run
// reports a call's wall time divided by the reference's time around it, in
// seconds at the reference's idle-host time: a change to the program moves
// that ratio, a change in the neighbours' load moves both terms and
// cancels.
//
// The kernel runs in the refkernel program (see refkernel/main.go), built
// next to the benchmark's binary, so that no change to the measured code
// can move its machine code.
type reference struct {
	name    string  // kernel name understood by refkernel
	seconds float64 // the kernel's typical time on an idle vCPU of the benchmark host
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
}

// Reference kernels: FFT butterflies for the SBD-bound workloads, a Gram
// build with power iteration for the extraction-bound one. The idle-host
// times are the kernels' 10th percentiles over 1000 runs on one vCPU of a
// 2-vCPU Xeon (Sapphire Rapids) VM.
var referenceSeconds = map[string]float64{"fft": 1.6e-3, "gram": 2.4e-3}

// startReference starts refkernel from the benchmark binary's directory.
// The caller must close the reference.
func startReference(name string) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(filepath.Dir(self), "refkernel"))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return &reference{name: name, seconds: referenceSeconds[name], cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// time runs the kernel once and returns its wall time in seconds. It
// collects the benchmark's heap first, so no garbage collection of the
// measured program's allocations runs beside the kernel.
func (r *reference) time() (float64, error) {
	runtime.GC()
	if _, err := io.WriteString(r.in, r.name+"\n"); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// scaled converts a wall time d, measured between kernel runs that took
// before and after seconds, to seconds at the kernel's idle-host time.
func (r *reference) scaled(d, before, after float64) float64 {
	return r.seconds * 2 * d / (before + after)
}

// close ends refkernel and waits for it to exit.
func (r *reference) close() error {
	r.in.Close()
	return r.cmd.Wait()
}
