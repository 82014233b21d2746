GO ?= go

.PHONY: all build test race bench bench-smoke bench-json bench-gate backend-equivalence checkpoint-equivalence kernel-equivalence sweep-determinism lint vet vet-tool fuzz cover verify repro server loadtest loadtest-json clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark — catches bit-rot without the cost.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The CI bench protocol: short repeated runs plus the JSON archive.
bench-json:
	$(GO) test -bench=. -benchtime=3x -count=2 -run='^$$' ./... | tee bench_pr.txt
	$(GO) run ./scripts/bench2json -in bench_pr.txt -out BENCH_pr.json

# The CI regression gate: fail on >10% geomean ns/op slowdown in the
# engine benchmarks (both backends) and the host matmul kernel between
# two bench-json style runs.
BENCH_OLD ?= bench_main.txt
BENCH_NEW ?= bench_pr.txt
bench-gate:
	$(GO) run ./scripts/benchgate -old $(BENCH_OLD) -new $(BENCH_NEW) -pkg 'internal/(simulator|des|matrix)' -max 0.10

# The cross-backend differential suite under the race detector: the
# goroutine and discrete-event engines must produce byte-identical
# Result/Metrics/CSV/Chrome-trace output (docs/BACKENDS.md).
backend-equivalence:
	$(GO) test -race -count=1 ./internal/des
	$(GO) test -race -count=1 -run 'TestWithBackend' .

# The checkpoint/resume differential suites under the race detector: a
# resumed run/sweep/job must produce byte-identical output to an
# uninterrupted one, at every cut (docs/BACKENDS.md, docs/SERVER.md).
checkpoint-equivalence:
	$(GO) test -race -count=1 ./internal/checkpoint
	$(GO) test -race -count=1 -run 'TestResumeDifferential|TestCheckpoint|TestSuspend' ./internal/des ./internal/sweep ./internal/server
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestRestore|TestResume' .

# The host-kernel differential suite under the race detector: the
# serial kernel must be bit-identical to the naive loop on every
# differential set and dispatch target, and the parallel kernel
# byte-identical to the serial one at workers ∈ {1, 2, 4, NumCPU}, on
# both partition axes (docs/PERFORMANCE.md). Mirrors sweep-determinism
# for the kernel.
kernel-equivalence:
	$(GO) test -race -count=1 -run 'TestMulAddIntoBitIdentical|TestKernelWorkerEquivalence|TestMulAddIntoParallel' ./internal/matrix

# The CI determinism check: the same sweep spec must emit byte-identical
# CSV at 1 and 8 host workers, under the race detector (docs/SWEEP.md).
SWEEP_ARGS = sweep -alg cannon,gk,berntsen -machine custom -ts 17 -n 16,32 -p 16,64 -faults ';straggler=2@rank0,seed=42'
sweep-determinism:
	$(GO) build -race -o bin/matscale ./cmd/matscale
	./bin/matscale $(SWEEP_ARGS) -jobs 1 -csv sweep_serial.csv
	./bin/matscale $(SWEEP_ARGS) -jobs 8 -csv sweep_parallel.csv
	cmp sweep_serial.csv sweep_parallel.csv
	@echo "sweep output is byte-identical at -jobs=1 and -jobs=8"

# Same linters as CI (.golangci.yml); requires golangci-lint on PATH.
lint: vet
	golangci-lint run

# Build the repo's own vettool (the matscale-vet analyzer suite; see
# docs/ANALYSIS.md) and print its path — `-s` makes the path the only
# stdout output, so `go vet -vettool=$$(make -s vet-tool) ./...` works.
vet-tool:
	@$(GO) build -o bin/matscale-vet ./cmd/matscale-vet 1>&2
	@echo $(CURDIR)/bin/matscale-vet

# Run the determinism/cost-model analyzers over the whole module,
# reusing the binary vet-tool just built.
vet: vet-tool
	$(GO) vet -vettool=$(CURDIR)/bin/matscale-vet ./...

# The CI fuzz targets, briefly.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faults
	$(GO) test -fuzz=FuzzRandomPrograms -fuzztime=$(FUZZTIME) -run='^$$' ./internal/simulator
	$(GO) test -fuzz=FuzzFaultedPrograms -fuzztime=$(FUZZTIME) -run='^$$' ./internal/simulator
	$(GO) test -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/des
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/checkpoint
	$(GO) test -fuzz=FuzzKernelWorkerEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/matrix

# Coverage with the CI floor check (75% of statements in internal/...).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print "total: " $$3 "%"; if ($$3 + 0 < 75) { print "coverage fell below the 75% floor"; exit 1 }}'

# End-to-end self-check: every algorithm vs its paper equation.
verify:
	$(GO) run ./cmd/matscale verify

# Regenerate the complete reproduction (all tables and figures).
repro:
	$(GO) run ./cmd/matscale all | tee REPRODUCTION.txt

# Build and run the HTTP sweep server (docs/SERVER.md).
server:
	$(GO) build -o bin/matscale-server ./cmd/matscale-server
	./bin/matscale-server

# The CI load-test protocol: 200 concurrent clients, half of them
# submitting overlapping specs, against an in-process server.
LOADTEST_ARGS ?= -clients 200 -overlap 0.5
loadtest:
	$(GO) build -o bin/matscale-loadtest ./cmd/matscale-loadtest
	./bin/matscale-loadtest $(LOADTEST_ARGS)

# Load test in bench format, folded into the benchmark archive the way
# the CI server job does it.
loadtest-json:
	$(GO) build -o bin/matscale-loadtest ./cmd/matscale-loadtest
	./bin/matscale-loadtest $(LOADTEST_ARGS) -bench | tee loadtest_bench.txt
	$(GO) run ./scripts/bench2json -in loadtest_bench.txt -merge BENCH_pr.json -out BENCH_pr.json

clean:
	rm -f REPRODUCTION.txt test_output.txt bench_output.txt bench_pr.txt bench_main.txt bench_delta.txt coverage.out sweep_serial.csv sweep_parallel.csv
	rm -f loadtest_bench.txt events_cold.txt events_warm.txt result_cold.json result_warm.json
	rm -rf bin
