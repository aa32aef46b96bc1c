GO ?= go

.PHONY: all build vet fmt lint lint-json test race check loc demo bench bench-cf bench-cf-smoke bench-logr-smoke bench-batch-smoke restart examples-smoke fuzz-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any
# Go file in the tree (lint fixtures under testdata included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# sysplexlint enforces the repo-specific concurrency and determinism
# invariants (lock hierarchy with module-wide deadlock-cycle detection,
# atomic-only fields, the simulated-clock rule, the duplexed-front
# rule, dropped CF command errors, context-first
# command signatures, goroutine shutdown paths, wire-protocol table
# exhaustiveness, and the suppression census). See DESIGN.md
# "Interprocedural enforcement". The driver prints load+analyze wall
# time on stderr.
lint:
	$(GO) run ./cmd/sysplexlint

# Machine-readable lint: full diagnostics plus the suppression census
# as JSON, for CI artifacts and dashboards.
lint-json:
	$(GO) run ./cmd/sysplexlint -json > lint-report.json

test:
	$(GO) test ./...

# Every package under the race detector: the CF pipeline, the exploiters
# and the façade share state across goroutines throughout, and a
# hand-kept package list drifts behind new sharing.
race:
	$(GO) test -race ./...

check: build vet fmt lint test race

# Non-test Go lines per top-level package (testdata excluded). The
# ROADMAP wants the tree to end each round smaller; this makes "smaller"
# a number in every PR's log.
loc:
	@count() { find "$$@" -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l; }; \
	printf '%7d  .\n' $$(count . -maxdepth 1); \
	for d in cmd/* examples/* internal/*; do printf '%7d  %s\n' $$(count $$d) $$d; done; \
	printf '%7d  total\n' $$(count .)

demo:
	$(GO) run ./cmd/sysplexdemo

# The five sysplexbench experiments no test, benchmark or example
# drives: cfscale, transport, batch, rmf and restart (-h lists them).
bench:
	$(GO) run ./cmd/sysplexbench -exp all

# CF command-path scaling: the Fig. 2 micro-benchmarks (serial and
# parallel variants) across core counts, then the goroutine sweep with
# its machine-readable output.
bench-cf:
	$(GO) test -run '^$$' -bench '^BenchmarkFig2_' -count=5 -cpu=1,4,8 .
	$(GO) run ./cmd/sysplexbench -exp cfscale,transport -json BENCH_cf.json

# One short iteration of the parallel benchmarks so CI catches rot
# without paying for a full measurement run. -benchmem at one and two
# CPUs keeps allocs/op of the duplexed commands (the command pipeline's
# no-heap-allocation promise, also held by TestDuplexedCommandAllocs)
# visible in every CI log.
bench-cf-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFig2_' -benchtime 100x -benchmem -cpu 1,2 .

# The System Logger's mainline write (BenchmarkStreamWrite: before any
# offload pass, and with 205 entry IDs pending from one) and its offload
# pass (BenchmarkOffloadPass: 200 records a pass) for a few iterations:
# B/op and allocs/op of a log write — 1.6 of them per OLTP transaction —
# and of a pass (B/op over 200 is bytes per offloaded record) are in
# every CI log beside the alloc guards TestWriteAllocsIndependentOfPending
# and TestOffloadBytesPerRecord.
bench-logr-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(StreamWrite|OffloadPass)$$' -benchtime 100x -benchmem -cpu 1,2 ./internal/logr

# EXP-BATCH end to end over real unix-socket cflink servers: exercises
# batch framing and the bulk-release exploit path (sync, batch1, batch8
# and batch32) in one short run so CI catches protocol or pipeline rot.
bench-batch-smoke:
	$(GO) run ./cmd/sysplexbench -exp batch

# EXP-RESTART: the kill-and-restart durability harness. Six rounds of
# SIGKILL at randomized points of a commit workload over a file-backed
# farm, each followed by a cold restart and an exactly-once audit of
# every acknowledged unit, plus the memory-vs-file A/B. The harness
# exits non-zero on any lost or duplicated unit. Built with -race: the
# child workload and the restarted sysplex both run under the detector.
restart:
	timeout 300 $(GO) run -race ./cmd/sysplexbench -exp restart

# Build and run every examples/ program under a short timeout, so
# façade API refactors cannot silently break them.
EXAMPLES := $(notdir $(wildcard examples/*))
examples-smoke:
	$(GO) build ./examples/...
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		timeout 60 $(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done

# The record codec's fuzz targets for 5 s each: cflink's frame and
# command codec over internal/wire, and one target per record on it
# (VTAM instance, txmgr XCF message, db log record, logr envelope). Each
# round-trips its record and feeds arbitrary bytes to the decoder, which
# must fail by name and never panic. FuzzPage holds db's in-place page
# reads and rebuilds to the same rule over any image decodePage accepts.
FUZZ_TARGETS := cflink:FuzzDecoder cflink:FuzzFrame cflink:FuzzRoundTrip vtam:FuzzInstance \
	txmgr:FuzzMsg db:FuzzLogRecord db:FuzzPage logr:FuzzEnvelope
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		echo "== internal/$$pkg $$fn"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 5s ./internal/$$pkg || exit 1; \
	done
