GO ?= go

.PHONY: build vet test race bench bench-test microbench check fuzz cover obs-smoke goldens

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full suite under the race detector — guards the Profile read-safety
# contract and the parallel experiment harness.
race:
	$(GO) test -race ./...

# The repo's one benchmark (BENCHMARK.json): four seeded workloads, end-to-end
# and per-layer metrics, built-in output checks. Call bench/run.sh directly to
# pass arguments (-workload, -trace, -runs, -compare); see bench/README.md.
bench:
	bash bench/run.sh

# bench/ is a Go module of its own, so `go test ./...` does not reach it.
bench-test:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# One iteration of each micro-benchmark: probe, digest projection, result
# snapshot, profile lookup, late-backlog planner, lifecycle recorder (one
# request, one 30-span request, one timeline lookup) and backlog
# simulation, so they keep compiling and running. Timings from one
# iteration mean nothing; run `go test -bench` with a real -benchtime to
# measure.
microbench:
	$(GO) test -run '^$$' -bench 'ProbeClasses|DigestProject|ResultClone|StepTimeBatch|PlanLateBacklog|RecorderRequest|RecorderDeepTimeline|RecorderLookup|RunBacklog' -benchtime 1x ./internal/control ./internal/costmodel ./internal/core ./internal/lifecycle ./internal/sim

# Regenerate the goldens a behavioural change moves: the experiment tables
# and the option census. Review the result as one `git diff`.
goldens:
	$(GO) test ./internal/experiments -run TestGoldenTables -update
	$(GO) test . -run TestOptionCensus -update

# Short randomized sweep of the invariant fuzz targets (the committed
# seed corpus under internal/invariant/testdata/fuzz replays in the plain
# test run; this explores beyond it). FUZZTIME tunes the per-target budget.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzPlanRound$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzControlLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzElasticControlLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzPlanReuse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzCacheAwarePlan$$' -fuzztime $(FUZZTIME)

# End-to-end smoke test of the telemetry plane against a real daemon:
# scrape /metrics, read /v1/rounds, follow the live trace, run tetrictl top.
obs-smoke:
	bash scripts/obs_smoke.sh

# Aggregate coverage profile across every package.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Everything a PR must pass: compile, vet, full suite, race detector, the
# benchmark module's own vet + tests, and one pass of the micro-benchmarks.
check: build vet test race bench-test microbench
