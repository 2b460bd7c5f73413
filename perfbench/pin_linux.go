//go:build linux

package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a scheduler affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of the process to the last CPU it may
// run on, and returns that CPU. Threads and child processes started later
// inherit the restriction.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return -1, e
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, errors.New("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Twice over: a thread started while the first pass runs inherits its
	// creator's mask, which the first pass may not have reached yet.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return -1, e
			}
		}
	}
	return cpu, nil
}
