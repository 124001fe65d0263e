# Single entry points shared by local development and CI, so the two
# can never drift: .github/workflows/ci.yml calls these same targets.

GO ?= go

.PHONY: build test race lint lint-mcdbench lint-budget loc bench bench-compare bench-baseline results

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the standard toolchain vet plus the repo's own invariant
# suite (docs/LINTING.md): determinism of the simulator and artifact
# rendering (including the whole-program dettaint/cachekey analyzers),
# cancellation flow, the harness error taxonomy and reachability. It
# also builds and vets the mcdbench module, which no other target
# compiles, so a change that breaks the benchmark harness fails here.
lint: lint-mcdbench
	$(GO) vet ./...
	$(GO) run ./cmd/mcdlint ./...

lint-mcdbench:
	cd mcdbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# lint-budget is what CI runs: the same checks, timed, with a 60s
# ceiling on the mcdlint pass. The interprocedural analyzers build a
# whole-program call graph; this gate keeps that from quietly growing
# into a multi-minute CI tax. The timing is echoed so the job log
# tracks the trend.
lint-budget:
	$(GO) vet ./...
	$(GO) build -o /tmp/mcdlint-ci ./cmd/mcdlint
	@start=$$(date +%s); \
	/tmp/mcdlint-ci ./... || exit $$?; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "mcdlint wall time: $${elapsed}s (budget 60s)"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "mcdlint exceeded its 60s wall-time budget" >&2; exit 1; \
	fi

# loc prints the non-test Go line count ROADMAP.md tracks: every .go
# file outside tests, test fixtures and the separate mcdbench module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './mcdbench/*' | xargs cat | wc -l

# BENCH_PATTERN selects the tracked benchmarks: the ones bench runs and
# bench-compare gates against BENCH_baseline.json.
BENCH_PATTERN = BenchmarkSimulatorThroughput|BenchmarkRunMatrix|BenchmarkChunkedReplay|BenchmarkRecordedReplay|BenchmarkRecordTrace|BenchmarkChip|BenchmarkRenderArtifact|BenchmarkRenderKey|BenchmarkServeWarmRequest|BenchmarkClassify|BenchmarkDiskHit

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem .

# bench-compare re-runs the tracked benchmarks and gates against the
# committed baseline; CI runs it as a blocking job. Two gates, each
# calibrated to how its statistic behaves on shared hardware:
#
#   * wall clock at ±40% — benchmarks reporting a throughput metric
#     (sim-insts/s for the simulator core, cells/s for the matrix
#     harness) are judged on that figure, the rest on ns/op, best-of-5
#     (-count=5, benchjson keeps the fastest repeat). Coarse on
#     purpose: back-to-back
#     best-of-N invocations drift ±20-30% with runner load, so a
#     tighter wall gate flaps red on quiet commits. 40% still trips on
#     catastrophic slowdowns (reintroducing per-cycle polling, an
#     accidental O(domains) scan per edge).
#   * work counts at ±10% — allocs/op, B/op, the warm-disk matrix's
#     disk-B/cell (mean cache-entry size), the disk-hit benchmarks'
#     entry-B/op (entry bytes read and checksummed per op), the
#     recorded-replay benchmark's trace-B/inst (resident bytes per
#     recorded instruction), the chunked-replay benchmark's
#     loads/pass (chunk decodes per pass) and the simulator
#     benchmark's slow-edges/inst and skipped-edges/inst (clock edges
#     per simulated instruction), each the minimum over the
#     five repeats, repeat between runs, so this gate is tight; it is
#     the one that catches per-iteration garbage creeping back into
#     the hot path, a result holding more memory, a cache entry or
#     trace encoding quietly growing, or a replay re-reading chunks.
#
# After a deliberate performance change, refresh the baseline with
# `make bench-baseline`.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count=5 -benchmem . \
		| $(GO) run ./cmd/benchjson -out bench_new.json
	$(GO) run ./cmd/benchjson -compare -tolerance 40 -alloc-tolerance 10 BENCH_baseline.json bench_new.json

# bench-baseline rewrites BENCH_baseline.json from a fresh best-of-5
# run; commit the result alongside the change that moved the numbers.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count=5 -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_baseline.json

# results regenerates results/ at full budget, every artifact -all and
# -faults default select in every format, on a cold cache, and fails if
# any committed file changed. It takes about 2 minutes on 2 vCPUs.
results:
	$(GO) run ./cmd/experiments -all -faults default -json -svg -out results -cache-dir "" > /dev/null
	git diff --exit-code results/
