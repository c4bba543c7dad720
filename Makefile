# make check mirrors .github/workflows/ci.yml for local runs.
GO ?= go

.PHONY: check fmt vet build cross test bench-module race stress bench bench-smoke bench-json staticcheck recovery-smoke fuzz-smoke loc

check: fmt vet build cross test bench-smoke bench-module race stress

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# internal/tensor has amd64 assembly leaves with generic Go loops behind
# them; nothing on an amd64 host compiles the non-amd64 declarations or
# vets the generic path on its own, so cross-build both modules for arm64.
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/tensor/
	cd bench && GOOS=linux GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# bench/ is its own module (BENCHMARK.json's harness), so ./... above never
# compiles it: an internal/ rename that breaks the benchmark shows up here.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The whole suite under the race detector; the alloc tripwires skip
# themselves under -race. The timeout covers the cluster chaos suite
# (a 2-core host takes ~10 minutes for the lot).
race:
	$(GO) test -race -timeout 25m ./...

# The exchange rules' scheduling-sensitive contracts — bounded staleness
# in both async modes, one halt boundary for every rank, window-1 bit
# equality with the sequential mode (in-process with a faulty comm, over
# the async cluster with duplicated, delayed and lost pushes, and under the
# evict policy with a crashed slave; the cross-mode rows run with every
# recycled push poisoned, as do TestRecycledPushPoison's in-process rows:
# a release before the last read trains on 0xFF, which its RunAsync rows
# at W = 2 and 4, where kept neighbours view pushes longest, would end
# on as NaN) and
# abort on a rank error — 20 times at GOMAXPROCS 1 and 2, with the two
# packages loading each other: the load under which the cluster absorb's
# old arrival-order apply failed most runs. About 9 minutes on a 2-core
# host, most of it the 3×3 crashed-slave rows (each waits out an eviction).
stress:
	$(GO) test -run 'Staleness|Stops|StopConsensus|SequentialParallel|RankError|CrossMode|RecycledPushPoison' -count 20 -cpu 1,2 ./internal/core/ ./internal/cluster/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark plus the allocation and memory
# tripwires (-run='Allocs|Heap' picks up the AllocsPerRun tests guarding
# the training iteration, forward-only and telemetry observation hot
# paths, and the live-heap budgets of a running MLP and DCGAN grid).
# Part of check, so the tripwires also run locally.
bench-smoke:
	$(GO) test -run='Allocs|Heap' -bench=. -benchtime=1x ./...

# Best-effort static analysis: runs staticcheck when it is installed
# (CI pins its own copy via dominikh/staticcheck-action).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# Short fuzz passes over the wire and file decoders and the matmul
# families' leaf tiers (mirrors the CI step).
fuzz-smoke:
	@for t in ReadCheckpoint ReadMixture; do \
		$(GO) test -run='^$$' -fuzz="^Fuzz$$t\$$" -fuzztime=10s ./internal/checkpoint/ || exit 1; done
	@for t in ReadIDXImages ReadIDXLabels; do \
		$(GO) test -run='^$$' -fuzz="^Fuzz$$t\$$" -fuzztime=10s ./internal/dataset/ || exit 1; done
	@for t in UnmarshalCellState DecodePush; do \
		$(GO) test -run='^$$' -fuzz="^Fuzz$$t\$$" -fuzztime=10s ./internal/core/ || exit 1; done
	$(GO) test -run='^$$' -fuzz='^FuzzViewMatsInto$$' -fuzztime=10s ./internal/tensor/
	$(GO) test -run='^$$' -fuzz='^FuzzMatMulFamilies$$' -fuzztime=10s ./internal/tensor/
	$(GO) test -run='^$$' -fuzz='^FuzzUnpackParts$$' -fuzztime=10s ./internal/mpi/
	@for t in OwnerUpdate ReleaseOrder RunTask SlaveReport SlaveReports StateUpdate StateAck; do \
		$(GO) test -run='^$$' -fuzz="^FuzzParse$$t\$$" -fuzztime=10s ./internal/cluster/ || exit 1; done

# Non-test Go lines per internal/ package, then assembly lines per package
# that has any: the ROADMAP's "net LOC of internal/ goes down" aim and its
# assembly budget as a one-command check.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done
	@printf '%6d internal/ total\n' $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@for d in internal/*/; do n=$$(find $$d -name '*.s' -exec cat {} + | wc -l); \
		[ $$n -eq 0 ] || printf '%6d %s assembly\n' $$n $$d; done
	@printf '%6d internal/ assembly total\n' $$(find internal -name '*.s' -exec cat {} + | wc -l)

# Crash-recovery e2e: SIGKILL a supervised TCP cluster job mid-run and
# require the resumed job's final checkpoint to be byte-identical to an
# uninterrupted run's.
recovery-smoke:
	bash scripts/recovery_smoke.sh

# Measured compute benchmarks archived as machine-readable JSON; the core
# package contributes the lockstep exchange round (BenchmarkExchangeRound).
# The second run adds the single-thread (-cpu 1, so no -N name suffix)
# kernel rows: the per-core rate of the matmul leaves, GFLOP/s included.
bench-json:
	{ $(GO) test -run=NoTests -bench=. -benchmem ./internal/tensor/ ./internal/nn/ ./internal/core/; \
	  $(GO) test -run=NoTests -bench='^BenchmarkKernelShapes$$' -cpu 1 ./internal/tensor/; } \
		| $(GO) run ./cmd/benchjson > BENCH_compute.json
	@echo wrote BENCH_compute.json
