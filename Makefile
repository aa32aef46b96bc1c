GO ?= go

.PHONY: all build vet lint lint-json test race check loc demo bench bench-cf bench-cf-smoke bench-logr-smoke bench-batch-smoke restart examples-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# sysplexlint enforces the repo-specific concurrency and determinism
# invariants (lock hierarchy with module-wide deadlock-cycle detection,
# atomic-only fields, the simulated-clock rule, the duplexed-front
# rule, dropped or never-waited CF command errors, context-first
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

# The CF, CFRM, LOGR, XCF, DB, and TXMGR packages plus the sysplex
# façade are the concurrency-heavy core (duplexed command mirroring,
# in-line failover, multi-system log writers with threshold offload,
# group messaging, WAL commit, two-phase commit); always run them under
# the race detector. METRICS and RMF join them: the registry is walked
# concurrently with updates, and the monitor samples every layer while
# the load runs. BUFFMAN and LOCKMGR join with the batched exploiters:
# group page writes and commit-time bulk release batch CF commands
# concurrently with the structures' own traffic. VTAM, JES and RACF
# join because their structure handles are read without a mutex: set
# once at construction, never reassigned.
race:
	$(GO) test -race ./internal/cf/... ./internal/cfrm/... ./internal/cflink/... ./internal/logr/... ./internal/xcf/... ./internal/db/... ./internal/txmgr/... ./internal/metrics/... ./internal/rmf/... ./internal/buffman/... ./internal/lockmgr/... ./internal/vtam/... ./internal/jes/... ./internal/racf/... .

check: build vet lint test race

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
# B/op and allocs/op of a log write — 2.4 of them per OLTP transaction —
# and of a pass (B/op over 200 is bytes per offloaded record) are in
# every CI log beside the alloc guards TestWriteAllocsIndependentOfPending
# and TestOffloadBytesPerRecord.
bench-logr-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(StreamWrite|OffloadPass)$$' -benchtime 100x -benchmem -cpu 1,2 ./internal/logr

# EXP-BATCH end to end over real unix-socket cflink servers: exercises
# async dispatch, batch framing, and the bulk-release exploit path in
# one short run so CI catches protocol or pipeline rot.
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
