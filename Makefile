# Convenience targets for the quake reproduction.

GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: all build vet test race bench bench-json bench-smoke fuzz-smoke soak-smoke serve-smoke serve-chaos width-smoke cover ci repro examples clean

# Benchmarks must run at the host's full width: a throttled GOMAXPROCS
# makes every parallel benchmark meaningless (the PE goroutines
# serialize), and the snapshot would record a number describing nothing.
# Override with `make bench-json BENCH_PROCS=4` to study a fixed width.
BENCH_PROCS ?= $(shell nproc)

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/fault/ ./internal/obs/... ./internal/par/ ./internal/partition/ ./internal/recover/ ./internal/serve/ ./internal/solver/ ./internal/sparse/ ./internal/spark/

# The gate CI runs: build + vet + full tests (as a coverage run with a
# floor), plus the race detector on the concurrency-heavy packages, plus
# a one-iteration benchmark smoke run so the kernel entry points cannot
# silently rot, plus a few seconds of fuzzing on the parsers that face
# untrusted input, plus the elastic-recovery chaos soak, the quaked
# service smoke, the durable-job chaos drill, and the width/order
# matrix.
ci: build vet cover race bench-smoke fuzz-smoke soak-smoke serve-smoke serve-chaos width-smoke

# Total statement coverage must not sink below the floor (measured
# 88.1% when the gate was introduced; the margin absorbs run-to-run
# noise from timing-dependent branches, not feature work shipped
# without tests).
COVER_FLOOR ?= 85.0

cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); printf "total coverage: %s%% (floor %s%%)\n", $$3, floor; \
		 if ($$3 + 0 < floor + 0) { print "FAIL: coverage below floor"; exit 1 } }'

# Regenerates every table/figure into results/ and records the raw
# benchmark log (the EXPERIMENTS.md pipeline), then distills it into a
# machine-readable BENCH_<date>.json for the perf trajectory
# (ns/op + B/op + allocs/op; see cmd/benchjson).
bench: bench-json

bench-json:
	GOMAXPROCS=$(BENCH_PROCS) $(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -out BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Executes each distributed-kernel benchmark once (no timing fidelity):
# a fast gate that the parallel SMVP entry points still run, and that
# the fault-injection hooks stay allocation-free on their hot path.
bench-smoke:
	$(GO) test -run='^$$' -bench='ParallelSMVP|OverlappedSMVP|FaultHookOverhead' -benchtime=1x -benchmem .

# Short mutation runs of the fuzz targets: the parsers that accept
# untrusted input (the message-matrix schedule builder, the fault-plan
# grammar, the durable-record frame, and the checkpoint and job-journal
# decoders above it) plus the
# aggregation-invariant fuzzer that hunts for schedules where the
# two-level fusion drops or reorders words. Go allows one -fuzz pattern
# per invocation, so each target gets its own run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFromMatrix -fuzztime=5s ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzAggregate -fuzztime=5s ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=5s ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=5s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=5s ./internal/recover/
	$(GO) test -run='^$$' -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeJournal -fuzztime=5s ./internal/serve/

# The elastic-recovery chaos soak: an actual quakesim run that loses a
# PE mid-solve, shrinks to the survivors, revives the slot, regrows to
# full width, and finishes with straggler rebalancing armed — the
# kill→shrink→revive→grow round trip exercised end to end from the CLI,
# not just in unit tests. The multi-fault in-process soak also runs
# (TestMultiFaultSoak: two kills + two revivals in one solve).
soak-smoke:
	$(GO) run ./cmd/quakesim -scenario sf10 -steps 20 -pes 8 -rebalance \
		-faults 'kill:pe=3,iter=12;revive:pe=3,iter=32' \
		-checkpoint soak-ck -every 5 -flight soak.flight.trace.json
	rm -rf soak-ck soak.flight.trace.json
	$(GO) test -count=1 -run 'TestMultiFaultSoak|TestKillReviveRoundTrip' ./internal/recover/

# The quaked service smoke: start the warm-pool server, run one cold
# and one cached solve against it over HTTP, assert the
# serve.cache.{hits,misses} counters through /metrics.json, and shut
# down gracefully — the whole serving stack exercised as a binary, not
# just in unit tests (see docs/SERVICE.md).
serve-smoke:
	$(GO) run ./cmd/quaked -addr 127.0.0.1:0 -smoke

# The durable-job chaos drill: a solve with a kill fault and migrate
# recovery is submitted over HTTP with an idempotency key, the whole
# engine is torn down mid-solve after at least one migration and one
# durable checkpoint, and a second engine on the same journal replays
# the job and finishes it from the checkpoint — crash-safety of the
# jobs WAL exercised as a binary (see docs/RELIABILITY.md).
serve-chaos:
	$(GO) run ./cmd/quaked -chaos -smoke-pes 4

# The width/order matrix: the service-facing packages and the runtime,
# solver and recovery layers under them (par, solver, recover) at
# GOMAXPROCS 1, 2 and 4 in shuffled order, so a test that only passes
# on a 1-CPU box or in file order fails here.
width-smoke:
	$(GO) test -count=1 -shuffle=on -cpu 1,2,4 ./cmd/quakesim ./cmd/quaked ./internal/serve ./internal/regress ./internal/par ./internal/solver ./internal/recover

# One-shot figure regeneration without the benchmark harness.
repro:
	$(GO) run ./cmd/quakerepro -scenarios sf10,sf5,sf2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/waveprop
	$(GO) run ./examples/netdesign
	$(GO) run ./examples/partitionstudy
	$(GO) run ./examples/implicit

clean:
	rm -rf results bench_output.txt test_output.txt coverage.out
