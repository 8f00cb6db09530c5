# OFC reproduction — convenience targets.

GO ?= go

.PHONY: all check build test test-cover race test-race vet lint bench bench-sim bench-ml bench-baseline benchdiff repro scorecard smoke-overload smoke-policies smoke-trace smoke-examples clean

all: check

# The default gate: build, vet, the determinism/correctness analyzers,
# full tests, the race detector over the concurrency-heavy packages
# (scheduler, network, cache cluster, proxy/resilience, platform,
# overload, chaos), coverage with the trace floor, then the end-to-end
# overload drill, the memctl policy-ablation grid, the golden-trace
# determinism smoke and one short run of every example and driver.
check: build vet lint test test-race test-cover smoke-overload smoke-policies smoke-trace smoke-examples

build:
	$(GO) build ./...

# The second line names the mltree fuzz targets, which run here over
# their seed corpus only: the training kernel against its reference.
test:
	$(GO) test ./...
	$(GO) test -run Fuzz ./internal/mltree

# Statement coverage: repo-wide report (informational) with a hard
# floor on internal/trace — the golden-trace harness is the point of
# that subsystem, so its coverage slipping fails the build.
test-cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -profile cover.out -pkg ofc/internal/trace -floor 70

race:
	$(GO) test -race ./...

# The scheduler runs on one P and on several. Its processes are
# coroutines, one runnable at a time, so the detector has nothing to
# find inside internal/sim on any number of Ps, and this is where it
# says so.
test-race:
	$(GO) test -race -cpu 1,4 ./internal/sim/...
	$(GO) test -race ./internal/simnet/... ./internal/kvstore/... ./internal/store/... ./internal/core/... ./internal/faas/... ./internal/overload/... ./internal/chaos/... ./internal/trace/...

vet:
	$(GO) vet ./...

# Repo-specific static analysis, eight analyzers: wall-clock reads
# (wallclock), global rand (seededrand), sentinel identity comparisons
# (senterr), blocking sim calls under mutexes (lockedrpc), map-iteration
# order leaking into output (mapiter), atomic/plain access mixes
# (atomicmix), host goroutines in simulation code (rawgo) and stale
# suppressions (unusedallow).
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
	$(GO) test -bench 'Sleep|After|Batch|Future|Queue|Cluster|ReadMulti|Transfer' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/sim/ ./internal/simnet/ ./internal/kvstore/
	$(GO) test -bench 'WarmInvocation' -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/faas/

# Invocation critical-path evidence: pointer-walk vs compiled tree
# inference and the end-to-end memoized Advise lookup;
# and J48 training on the shapes the ModelTrainer refits
# (CI smoke: -benchtime=10x; drop it for real numbers).
bench-ml:
	$(GO) test -run '^$$' -bench 'Fit|Classify|Advise' -benchmem -benchtime 10x ./internal/mltree ./internal/core

# Regenerate the committed perf snapshot (quick sweep + micro benches).
bench-baseline:
	$(GO) run ./cmd/ofc-bench -exp all -quick -benchout BENCH_sim.json

# Compare two perf snapshots: make benchdiff OLD=BENCH_sim.json NEW=new.json
benchdiff:
	$(GO) run ./scripts $(OLD) $(NEW)

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/ofc-bench -exp all

scorecard:
	$(GO) run ./cmd/ofc-bench -exp summary

# End-to-end degradation drill: 5x tenant spike + mid-spike node crash.
# The drill must shed load, walk Normal->Brownout->Shed and back, keep
# retries under the budget cap and lose no acknowledged write.
smoke-overload:
	$(GO) run ./cmd/ofc-bench -exp overload -quick

# Memory-control-plane ablation: the full eviction × slack grid in
# quick mode (~10 s). Guards the memctl seam end to end — every
# registered policy must still deploy, fill the cache, and satisfy the
# scale-down reclaim probe.
smoke-policies:
	$(GO) run ./cmd/ofc-bench -exp policies -quick

# Golden-trace determinism smoke: the fixed-seed drill must export
# bit-identical Chrome-trace JSON and validate as well-formed.
# Intentional changes regenerate with OFC_REGEN_GOLDEN=1.
smoke-trace:
	$(GO) test ./internal/experiments -run 'TestGoldenTrace|TestTraceDrill' -count=1

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
