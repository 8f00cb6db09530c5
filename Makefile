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

# The second line names the mltree fuzz targets, which run here over
# their seed corpus only: the training kernel against its reference.
test:
	$(GO) test ./...
	$(GO) test -run Fuzz ./internal/mltree

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
# that print every table (internal/experiments). Each floor is one
# covercheck pass over the same profile; all but the first print only
# a failure.
test-cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/trace -floor 70
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/core -floor 75 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/faas -floor 85 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/kvstore -floor 90 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/store -floor 91 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/memctl -floor 83 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/sim -floor 92 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/simnet -floor 93 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/objstore -floor 86 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/overload -floor 90 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/chaos -floor 94 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/metrics -floor 94 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/imoc -floor 97 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/lint -floor 91 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/mltree -floor 92 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/workload -floor 88 > /dev/null
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/experiments -floor 95 > /dev/null

# The scheduler runs on one P and on several. Its processes are
# coroutines, one runnable at a time, so the detector has nothing to
# find inside internal/sim on any number of Ps, and this is where it
# says so. The second line covers every package. State bound to an Env
# holds no lock or atomic, so it is the evidence that no host goroutine
# shares such state: experiments.Parallel runs each cell's deployment
# on its own goroutine, and the trace recorder is driven from 64.
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
	$(GO) test -bench 'Sleep|After|Then|Batch|Future|Queue|Cluster|Multi|Transfer|Disk|Resilient' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/sim/ ./internal/simnet/ ./internal/kvstore/ ./internal/store/
	$(GO) test -bench 'WarmInvocation' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/faas/

# Invocation critical-path evidence: pointer-walk vs compiled tree
# inference and the end-to-end memoized Advise lookup;
# and J48 training on the shapes the ModelTrainer refits
# (CI smoke: -benchtime=10x; drop it for real numbers).
bench-ml:
	$(GO) test -run '^$$' -bench 'Fit|Classify|Advise' -benchmem -benchtime 10x ./internal/mltree ./internal/core

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
	f=$$(mktemp) && $(GO) run ./cmd/ofc-ml -cmd gen -data $$f > /dev/null; s=$$?; rm -f $$f; exit $$s

clean:
	$(GO) clean ./...
