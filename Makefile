GO ?= go
GOFMT ?= gofmt

# `go test` / `go run` binaries carry no VCS stamp (only `go build` does),
# so the bench and report tooling would record revision "unknown". These
# ldflags feed the real revision through the internal/obs fallbacks.
VCS_REVISION := $(shell git rev-parse HEAD 2>/dev/null || echo unknown)
VCS_MODIFIED := $(shell test -n "$$(git status --porcelain 2>/dev/null)" && echo true || echo false)
VCS_LDFLAGS := -ldflags "-X kshape/internal/obs.fallbackRevision=$(VCS_REVISION) -X kshape/internal/obs.fallbackModified=$(VCS_MODIFIED)"

.PHONY: build test test-short test-race perfbench-test vet lint fmt-check check bench bench-diff bench-smoke smoke fuzz golden loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast subset: skips the multi-minute experiment sweeps.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the deterministic parallel substrate
# (internal/par) and every package that computes through it: the Lloyd /
# k-Shape engines, distance-matrix builds, PAM/spectral scans, 1-NN
# evaluation, the atomic counters in internal/obs, and the public API.
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/par/ ./internal/obs/ ./internal/core/ ./internal/dist/ ./internal/eval/ ./internal/cluster/ .

# The benchmark harness (perfbench/) is a nested module, so `go test ./...`
# at the root skips it. Its tests check that its shadow copy of the
# k-Shape loop reproduces kshape.Cluster / Classify1NN labels.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Two passes: the full default vet suite, then an explicit -copylocks
# -atomic pass so the two analyses the concurrency layer leans on hardest
# stay enabled even if the default set ever changes.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -atomic ./...

# Repo-specific static analysis (cmd/kshapelint): the per-file checks
# (floatcmp, detrand, goroutine, maporder, errdrop) plus the
# interprocedural ones (hotpath, atomicinv, ignoredrift) — the latter
# share one call graph / function-summary cache built once per run.
# Exits nonzero on any unsuppressed diagnostic; suppress deliberate
# cases with //lint:ignore <check> <reason>, and use
# `go run ./cmd/kshapelint -diff ./...` to preview stale-directive
# removals as a dry-run patch.
lint:
	$(GO) run ./cmd/kshapelint ./...

# Prints the non-test Go line count that ROADMAP.md tracks from change to
# change: every .go file except _test.go files, testdata/, the perfbench/
# module and the benchmark build output in .bench_build/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' ! -path '*/.bench_build/*' -print0 | xargs -0 cat | wc -l

# Fails (and lists the offenders) when any file is not gofmt-clean.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Telemetry smoke test: a real clustering run with -listen, scraped over
# HTTP, asserting the kernel counters and phase histograms appear on
# /metrics (see cmd/kshape/telemetry_test.go).
smoke:
	$(GO) test -run TestTelemetrySmoke -count=1 ./cmd/kshape/

# Coverage-guided fuzzing smoke pass: every fuzz target for FUZZTIME
# (default 10s). The checked-in seed corpora under testdata/fuzz/ also run
# as plain regression tests during `make test`; this target additionally
# mutates beyond them. Regenerate the corpora with
# `go run ./internal/testkit/gencorpus`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz='^FuzzSBD$$' -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -fuzz='^FuzzDTWBand$$' -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -fuzz='^FuzzFFTRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/fft/
	$(GO) test -fuzz='^FuzzRFFT$$' -fuzztime=$(FUZZTIME) ./internal/fft/
	$(GO) test -fuzz='^FuzzZNormalize$$' -fuzztime=$(FUZZTIME) ./internal/ts/
	$(GO) test -fuzz='^FuzzUCRLoader$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -fuzz='^FuzzCluster$$' -fuzztime=$(FUZZTIME) .

# Regenerates the golden snapshots (testdata/golden/) after a deliberate,
# reviewed renderer change. `make test` fails on any byte of drift.
golden:
	$(GO) test ./internal/experiments/ ./internal/obs/ ./internal/plot/ ./cmd/kshape/ ./cmd/benchjson/ -run Golden -update

# Pre-commit gate, cheapest first so failures surface early: formatting,
# go vet, the repo's own analyzers (kshapelint), the full test suite
# (which includes the differential-oracle suite, the golden snapshots, and
# the fuzz seed corpora as regression tests), the race-detector pass over
# the parallel packages, the telemetry smoke test, and the benchmark
# module's own tests, in that order. Run `make fuzz` separately for the
# coverage-guided mutation pass.
check: fmt-check vet lint test test-race smoke perfbench-test

# Runs every benchmark (including the serial-vs-parallel family with its
# speedup and kernel-counter metrics) and regenerates the committed
# BENCH_kshape.json via cmd/benchjson. Two noise defenses, both needed
# before the 10% bench-diff gate is meaningful on a shared machine:
# time-based -benchtime gives the microsecond-class kernels the thousands
# of iterations that average out scheduler jitter (the second-class
# experiment sweeps naturally stay at one or two), and -count=5 repeats
# the whole suite so each benchmark's fastest pass — the least-interfered
# one — is what benchjson records, riding out background load that drifts
# on a minutes timescale. The intermediate bench.out keeps the raw
# `go test -bench` text around for inspection; it is gitignored.
bench:
	$(GO) test $(VCS_LDFLAGS) -bench=. -benchtime=1s -count=5 -run=^$$ . > bench.out
	cat bench.out
	$(GO) run $(VCS_LDFLAGS) ./cmd/benchjson -o BENCH_kshape.json bench.out
	@echo "wrote BENCH_kshape.json"

# Regression gate: rerun the full benchmark suite into a fresh report and
# compare it against the committed baseline with cmd/benchdiff, failing on
# any benchmark whose ns/op grew beyond BENCH_THRESHOLD. The fresh report
# is kept (gitignored) for inspection.
BENCH_THRESHOLD ?= 10%
bench-diff:
	$(GO) test $(VCS_LDFLAGS) -bench=. -benchtime=1s -count=5 -run=^$$ . > bench-new.out
	$(GO) run $(VCS_LDFLAGS) ./cmd/benchjson -o bench-new.json bench-new.out
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_kshape.json bench-new.json

# CI-sized regression smoke: only the ~100ms-class parallel benchmarks
# (microsecond kernels are too jittery for single-shot timing), three
# iterations each, compared against the committed baseline with a loose
# threshold — this catches egregious regressions on noisy CI machines;
# `make bench-diff` is the strict local gate. -count=3 repeats each
# benchmark so benchjson keeps its fastest pass, as `make bench` does: one
# interfered pass no longer decides the gate. Also runs one instrumented
# kbench whose flight report (bench-smoke-report.json) and HTML run
# dashboard (bench-smoke-dashboard.html) are uploaded as build artifacts.
BENCH_SMOKE_THRESHOLD ?= 50%
bench-smoke:
	$(GO) test $(VCS_LDFLAGS) -bench='DistanceMatrixSBD|KShapeRefinement|KShapeCBF90x512|OneNN' -benchtime=3x -count=3 -run=^$$ . > bench-smoke.out
	$(GO) run $(VCS_LDFLAGS) ./cmd/benchjson -o bench-smoke.json bench-smoke.out
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_SMOKE_THRESHOLD) BENCH_kshape.json bench-smoke.json
	$(GO) run $(VCS_LDFLAGS) ./cmd/kbench -datasets 2 -runs 1 -workers 4 -report bench-smoke-report.json -dashboard bench-smoke-dashboard.html table3 > /dev/null
