# Tier-1 gate and convenience targets for the threadsched reproduction.
#
#   make check   — the full gate: build, vet, tests, the race suites
#                  (core concurrency + trace pipeline + golden
#                  equivalence of the batched/parallel simulation paths),
#                  the daemon smokes and results-check
#   make serve-smoke — end-to-end daemon smoke: boot cmd/tracesimd, push
#                  jobs through it with cmd/loadgen, require every one to
#                  complete, then drain it with SIGTERM
#   make crash-smoke — the kill -9 chaos gate: boot a journaled daemon,
#                  SIGKILL it mid-batch, tear the journal tail, restart,
#                  and require every pre-crash job ID to resolve (with
#                  its original result, or as failed-interrupted) and
#                  idempotent resubmits to dedupe — under -race
#   make results-check — regenerate locality-bench -size scaled and
#                  diff it against results/scaled_run.txt under the quick
#                  goldens' masking rule (host-timed cells and wall-time
#                  notes); about a minute on two cores
#   make fuzz-smoke — short bursts of the trace-format fuzzers (reader
#                  robustness + Read/ReadBatch against the reference
#                  decoder + chunk/trailer integrity oracle + sharded
#                  decode differential + Writer call-split round trip
#                  + sliced-simulation differential),
#                  the cache simulator's and the cache hierarchy's
#                  differentials against their naive reference models,
#                  the daemon's request-decode fuzzer
#                  and the job journal's replay fuzzer
#   make guard-pipeline — the opt-in throughput tripwire: fails if the
#                  default pipelined reference-stream path loses its
#                  margin over the serial oracle (1.10x on >=2 CPUs,
#                  0.95x on one)
#   make guard-replay — the opt-in sliced-replay tripwire: fails if the
#                  address-sliced parallel simulation falls below its
#                  serial baseline at >=2 workers (skips on 1-CPU hosts)
#   make bench   — one pass over every benchmark (smoke, not measurement)
#   make bench-core — the fork/run pipeline benchmarks with real counts
#   make timeline — demo the observability layer: run one table with
#                  metrics + worker timeline attached, writing
#                  metrics.json and timeline.json (load the latter in
#                  chrome://tracing or https://ui.perfetto.dev)

GO ?= go

.PHONY: check build vet test race serve-smoke crash-smoke results-check fuzz-smoke guard-pipeline guard-replay bench bench-core timeline

check: build vet test race serve-smoke crash-smoke results-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

test:
	$(GO) test -timeout 10m ./...
	$(GO) -C benchmark test ./...

race:
	$(GO) test -race -timeout 10m ./internal/arena/... ./internal/core/... ./internal/trace/... ./internal/obs/... ./internal/fault/... ./internal/sim/... ./internal/server/... ./internal/journal/... ./cmd/tracesim/...
	$(GO) test -race -count=10 -timeout 10m -run 'TestDepScheduler(Parallel|DataflowOrder|HaltedRun|ObservedParks)|TestPanicMatrix/wavefront|TestDependencyCycle|TestUnknownDependency' ./internal/core/
	$(GO) test -race -timeout 10m -run 'Parallel|Exact|Threaded' ./internal/apps/...
	$(GO) test -race -timeout 10m -run 'TestGoldenEquivalence|TestRunJobs|TestReplayBench|TestRunJob|TestConfigReuse|TestPipelinedJob' ./internal/harness/

# The committed scaled run, pinned: TestScaledRunMatchesResults masks
# both outputs with the goldens' maskHostTimed and names every line that
# differs. Without -scaled-run that test skips, so go test ./... never
# pays for the scaled geometry.
results-check:
	@mkdir -p bin
	$(GO) run ./cmd/locality-bench -size scaled > bin/scaled_run.txt
	$(GO) test -count=1 -run TestScaledRunMatchesResults ./internal/harness/ -args -scaled-run=$(CURDIR)/bin/scaled_run.txt

# Short deterministic-corpus + 10s random bursts of the trace fuzzers;
# enough to catch format regressions without a dedicated fuzz farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadBatch -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzChunkTrailer -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzShardedDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzWriterRoundTrip -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzSliceRouter -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzCacheMatchesReference -fuzztime 10s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzHierarchyMatchesReference -fuzztime 10s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal/

# End-to-end daemon smoke: boot the daemon on a local port, complete a
# small batch of jobs through the HTTP API under concurrency, then drain
# with SIGTERM. Part of `make check`, so kept small and quick.
SMOKE_ADDR ?= 127.0.0.1:18080
serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/tracesimd ./cmd/tracesimd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	@./bin/tracesimd -addr $(SMOKE_ADDR) -workers 2 -queue 64 & pid=$$!; \
	sleep 1; \
	./bin/loadgen -addr http://$(SMOKE_ADDR) -jobs 40 -concurrency 8 -min-completions 40 \
		|| { kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Kill -9 chaos gate (part of `make check`): the whole crash →
# torn-tail → restart → audit cycle lives in TestCrashSmoke, which
# re-execs the test binary as a real daemon process, so -race rides
# along. Gated behind CRASH_SMOKE=1 so a bare `go test ./...` stays
# fast and process-free.
crash-smoke:
	CRASH_SMOKE=1 $(GO) test -race -count=1 -run TestCrashSmoke -timeout 5m -v ./cmd/tracesimd/

# Opt-in perf regression guard (real throughput measurement, so not part
# of the default test run): the default pipelined path must beat the
# serial oracle by 10% on a multicore host and not fall below it on one
# CPU.
guard-pipeline:
	GUARD_PIPELINE=1 $(GO) test -run TestGuardPipelineThroughput -count=1 -v ./internal/harness/

# Opt-in sliced-replay guard: address-sliced parallel simulation must not
# fall below its serial baseline at >=2 workers. Needs a multicore host
# (skips otherwise — scatter is added work a single core cannot hide).
guard-replay:
	GUARD_REPLAY=1 $(GO) test -run TestGuardReplayThroughput -count=1 -timeout 20m -v ./internal/harness/

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

bench-core:
	$(GO) test -run='^$$' -bench='BenchmarkParallelFork|BenchmarkPartitionedRun|BenchmarkTable1ThreadOverhead' .

timeline:
	$(GO) run ./cmd/locality-bench -exp table2 -size quick \
		-metrics metrics.json -timeline timeline.json
