//go:build !linux

package main

import "errors"

// pinToOneCPU is only implemented on Linux; elsewhere the timed run is
// not pinned.
func pinToOneCPU() (int, error) {
	return -1, errors.New("CPU pinning is only implemented on Linux")
}
