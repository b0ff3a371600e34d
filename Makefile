# Developer entry points. `make check` is the gate a PR must pass: gofmt,
# vet, build, the public-API drift guard, the full test suite under the
# race detector (the experiment grids in internal/experiments fan cells
# across goroutines, so -race exercises the concurrency model for real),
# short passes of the six fuzzers listed under the fuzz target, and vet
# plus tests of the separate bench module.

GO ?= go
FUZZTIME ?= 5s
BENCH_STAMP := $(shell date +%Y%m%d_%H%M%S)

# Combined statement-coverage floor over the lattice, the engine, the
# planner, the durable store and the stop policies (see the cover
# target): 81.4% measured over the first four when the gate was
# introduced and 88.1% over all five when last measured, floored to absorb
# timing-dependent recovery paths.
COVER_MIN ?= 80.0

.PHONY: check fmt vet build api api-update test race fuzz cover bench bench-smoke bench-compare bench-module plan-golden plan-golden-update

check: fmt vet build api plan-golden race fuzz cover bench-smoke bench-compare bench-module

# Fail when the root package's exported surface no longer matches the
# committed api.txt golden; `make api-update` regenerates it after a
# reviewed, intentional API change.
api:
	$(GO) test -run '^TestPublicAPISurface$$' .

api-update:
	$(GO) test -run '^TestPublicAPISurface$$' -update .

# Fail when the serialized Plan IR of the running-example and synthetic
# queries no longer matches the testdata/plan goldens; `make
# plan-golden-update` regenerates them after a reviewed planner change.
plan-golden:
	$(GO) test -run '^TestPlanGolden' .

plan-golden-update:
	$(GO) test -run '^TestPlanGolden' -update .

# Fail when any file is not gofmt-clean; print the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# order-dependent tests fail loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Short fuzz passes over the durable-store record decoder (framing, CRC,
# canonical re-encode), the Prometheus label escaping (round-trip,
# scrape-safety), the contract of the species stop rule (no panics,
# latched ShouldStop, an estimate in [0, 1] equal to a brute-force
# 1 − f1/n over the stream) and the classifier's term index (equal to
# the scan oracle after every operation; see the fuzz_test.go in each
# package).
fuzz:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzLabelEscaping$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/aggregate -run '^$$' -fuzz '^FuzzStopPolicy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oassisql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rdfio -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzClassifierIndex$$' -fuzztime $(FUZZTIME)

# Combined assign+core+plan+store+aggregate statement coverage, gated at
# COVER_MIN so lattice (the node table and successor moves included),
# engine (the paper-order pick included), planner, store or stop-policy
# changes that shed tests fail the build.
cover:
	@mkdir -p build
	$(GO) test -coverprofile=build/cover.out -coverpkg=./internal/assign,./internal/core,./internal/plan,./internal/store,./internal/aggregate ./internal/assign ./internal/core ./internal/plan ./internal/store ./internal/aggregate
	@total=$$($(GO) tool cover -func=build/cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "combined assign+core+plan+store+aggregate coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }

# Micro + macro benchmarks (hot paths and the per-figure experiment
# harness), plus a timestamped BENCH_*.json perf-trajectory artifact from
# the quick experiments.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/vocab ./internal/assign ./internal/core ./internal/aggregate ./internal/plan ./internal/serve ./internal/panel ./internal/fact ./internal/itemset ./cmd/oassis-server
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) run ./cmd/oassis-bench -exp summary,bounds,panels,stopping,spam,capture,assoc -parallel 1 -out BENCH_$(BENCH_STAMP).json
	@echo "wrote BENCH_$(BENCH_STAMP).json"

# One-iteration pass over every benchmark: catches bench-only compile rot
# and hot-path panics on each PR without paying for stable timings. The
# panels scenario rides along as a smoke of panel batching (it hard-fails
# on result drift). The serving smoke is bench-module's serve-many test:
# the multi-tenant serving tier under real concurrency.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/vocab ./internal/assign ./internal/core ./internal/aggregate ./internal/plan ./internal/serve ./internal/panel ./internal/fact ./internal/itemset ./cmd/oassis-server .
	$(GO) run ./cmd/oassis-bench -exp panels -scale 0.01 -parallel 1

# The perf-trajectory gate: rerun the experiments recorded in the committed
# baseline artifact and fail on >15% wall-clock regression or any result
# drift (the panels scenario's round-trip counts are deterministic, so the
# gate pins the batching efficiency too). Refresh the baseline (same
# flags!) only with a reviewed perf change:
#   go run ./cmd/oassis-bench -exp summary,bounds,panels,stopping,spam,capture,assoc -parallel 1 -out BENCH_baseline.json
bench-compare:
	$(GO) run ./cmd/oassis-bench -parallel 1 -compare BENCH_baseline.json

# The repo benchmark (bench/) is its own module, built against this one
# through a replace directive, so ./... above never reaches it. Vet it and
# run its tests, whose TestSmokeEveryWorkload drives every workload
# briefly: a change to an API the benchmark uses fails here, not only when
# the benchmark is next run. Its serve-many case is the serving smoke:
# 200 sessions over the multi-tenant tier from concurrent drivers, in
# open- and closed-loop phases.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
