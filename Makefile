# OFC reproduction — convenience targets.

GO ?= go

.PHONY: all check build test test-cover test-race vet lint bench bench-sim bench-ml repro scorecard smoke-policies smoke-examples clean

all: check

# The default gate: build, vet, the determinism/correctness analyzers,
# full tests, the race detector over every package, coverage with its
# floors, then one run of ofc-bench over the policy grid and one
# short run of every example and driver.
check: build vet lint test test-race test-cover smoke-policies smoke-examples

build:
	$(GO) build ./...

# Every test, and every fuzz target over its seed corpus only: the
# training kernel against its reference, the scheduler's two-heap event
# queue against a sorted list, the store's key table against a map of
# reference counts, and its log-structured memory against a map of
# each key's object and the log's byte counts.
test:
	$(GO) test ./...

# Statement coverage: repo-wide report (informational) with hard
# floors on internal/trace — the golden-trace harness is the point of
# that subsystem — on internal/core and internal/faas, which hold the
# proxy, the control plane and the invoke path, on the storage engine
# (internal/kvstore), its middleware (internal/store) and the
# memory-control policies (internal/memctl), on the scheduler
# (internal/sim) and the fabric (internal/simnet) every run stands on,
# on the RSDS model (internal/objstore), overload control
# (internal/overload), fault injection (internal/chaos) and the
# statistics helpers (internal/metrics), and on the in-memory object
# cache baseline (internal/imoc), the invariant checker
# (internal/lint), the decision trees (internal/mltree), the
# evaluation workloads (internal/workload) and the experiments
# that print every table (internal/experiments). One covercheck run
# prints the report and checks every floor, naming each that slipped.
test-cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -profile cover.out \
		-floor ofc/internal/trace=70 \
		-floor ofc/internal/core=80 \
		-floor ofc/internal/faas=85 \
		-floor ofc/internal/kvstore=95 \
		-floor ofc/internal/store=93 \
		-floor ofc/internal/memctl=83 \
		-floor ofc/internal/sim=92 \
		-floor ofc/internal/simnet=93 \
		-floor ofc/internal/objstore=86 \
		-floor ofc/internal/overload=90 \
		-floor ofc/internal/chaos=94 \
		-floor ofc/internal/metrics=94 \
		-floor ofc/internal/imoc=97 \
		-floor ofc/internal/lint=91 \
		-floor ofc/internal/mltree=92 \
		-floor ofc/internal/workload=88 \
		-floor ofc/internal/experiments=95

# The scheduler runs on one P and on several. Its processes are
# coroutines, one runnable at a time, so the detector has nothing to
# find inside internal/sim on any number of Ps, and this is where it
# says so. The second line covers every package. State bound to an Env
# holds no lock or atomic, so it is the evidence that no host goroutine
# shares such state: experiments.Parallel runs each cell's deployment,
# its trace recorder included, on its own goroutine.
test-race:
	$(GO) test -race -cpu 1,4 ./internal/sim/...
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis, eight analyzers: wall-clock reads
# (wallclock), global rand (seededrand), sentinel identity comparisons
# (senterr), blocking sim calls under mutexes (lockedrpc), map-iteration
# order leaking into output (mapiter), atomic/plain access mixes
# (atomicmix), host goroutines and sync/sync-atomic imports in
# simulation code (rawgo) and stale suppressions (unusedallow).
# Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/ofc-lint ./...

# Every package's benchmarks once; at the root, one per -exp id at
# -quick.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...

# Scheduler/data-plane micro-benchmarks and the platform's warm
# invocation (CI smoke: -benchtime 1x keeps it to one iteration per
# benchmark; drop BENCHTIME for real numbers).
BENCHTIME ?= 1x
bench-sim:
	$(GO) test -bench 'Sleep|After|Then|Batch|Future|Cluster|Multi|Transfer|Disk|Resilient|Log' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/sim/ ./internal/simnet/ ./internal/kvstore/ ./internal/store/
	$(GO) test -bench 'WarmInvocation' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/faas/

# Invocation critical-path evidence: tree inference (Classify and the
# buffered Distribution) and the end-to-end memoized Advise lookup;
# and J48 training on the shapes the ModelTrainer refits
# (CI smoke: -benchtime=10x; drop it for real numbers).
bench-ml:
	$(GO) test -run '^$$' -bench 'Fit|Refit|Classify|Distribution|Advise' -benchmem -benchtime 10x ./internal/mltree ./internal/core

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/ofc-bench -exp all

scorecard:
	$(GO) run ./cmd/ofc-bench -exp summary

# The one run of the ofc-bench binary (~10 s): the full eviction ×
# slack grid in quick mode. It checks that the binary's flags parse,
# that every cell deploys and that the binary exits 0; the grid's
# numbers are pinned (at seed 3) by quick_seed3.golden, not here.
smoke-policies:
	$(GO) run ./cmd/ofc-bench -exp policies -quick

# The six examples and the three drivers no test runs past `go build`:
# one short run of each must exit 0.
smoke-examples:
	for e in analytics imagepipeline loadtest quickstart tracereplay triggers; do \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/ofc-wsk -action wand_blur -size 64k -repeat 2 > /dev/null
	$(GO) run ./cmd/ofc-sim -mode ofc -tenants 2 -window 2m > /dev/null
	f=$$(mktemp) && m=$$(mktemp) && \
		$(GO) run ./cmd/ofc-ml -cmd gen -data $$f > /dev/null && \
		$(GO) run ./cmd/ofc-ml -cmd train -data $$f -model $$m > /dev/null && \
		$(GO) run ./cmd/ofc-ml -cmd eval -data $$f -model $$m > /dev/null; \
		s=$$?; rm -f $$f $$m; exit $$s

clean:
	$(GO) clean ./...
