# Local targets mirror .github/workflows/ci.yml one to one, so a green
# `make ci` means a green CI run (`make lint` needs staticcheck on PATH;
# the nightly workflow additionally runs `make fuzz-long`).

GO ?= go
# Benchmark artifact produced by `make bench-agg` and uploaded by CI;
# bump per PR so artifacts stay comparable across the perf trajectory.
BENCH_JSON ?= BENCH_PR6.json
# Committed baseline the bench-regression gate compares against.
BENCH_BASELINE ?= BENCH_PR4.json
# Load-wall report produced by `make load-gate` and uploaded nightly.
LOAD_JSON ?= BENCH_PR7.json
# Memory-diet artifact produced by `make bench-mem` and gated by
# `make bench-mem-gate` (the columnar-storage PR's baseline).
BENCH_MEM_JSON ?= BENCH_PR8.json
# Disk-store persistence artifact produced by `make bench-persist` and
# gated by `make bench-persist-gate` (the disk-backed store tier PR's
# baseline: cold solve+append vs warm restart with zero solver runs).
BENCH_PERSIST_JSON ?= BENCH_PR9.json
# Incremental-maintenance artifact produced by `make bench-incr` and
# gated by `make bench-incr-gate` (the versioned-dataset PR's
# baseline).
BENCH_INCR_JSON ?= BENCH_PR10.json

.PHONY: all build fmt fmt-check vet lint test race bench bench-exec bench-agg bench-gate bench-mem bench-mem-gate bench-persist bench-persist-gate bench-incr bench-incr-gate crash-recovery warm-restart pprof-capture load-gate stress differential fuzz fuzz-long docs-check serve ci

all: build

build:
	$(GO) build ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Mirrors the CI lint job. Install the pinned version with:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
lint:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; exit 1; }
	staticcheck ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/benchtab -experiment agg -benchjson $(BENCH_JSON) -quiet

# The executor benchmark: serial vs parallel indexed Yannakakis over
# identical plans, with parallel == serial byte for byte enforced in
# the experiment. Ungated; the committed BENCH_PR5.json (which also
# timed the since-removed slice-scan kernel) stays as history, so the
# fresh run is written outside the tree.
bench-exec:
	$(GO) run ./cmd/benchtab -experiment exec -benchjson /tmp/BENCH_exec_fresh.json -quiet

# This PR's benchmark: aggregate pushdown vs materialise-then-fold on
# high-output star queries, including the differential wall and the
# row-budget flip inside the experiment (writes $(BENCH_JSON)).
bench-agg:
	$(GO) run ./cmd/benchtab -experiment agg -benchjson $(BENCH_JSON) -quiet

# The bench-regression gate CI runs on every PR: a fresh query
# experiment must not regress the warm-plan suite >25% against the
# committed $(BENCH_BASELINE); the cold entries calibrate out the
# machine-speed difference between this host and the baseline's.
bench-gate:
	$(GO) run ./cmd/benchtab -experiment query \
		-benchjson /tmp/BENCH_query_fresh.json \
		-compare $(BENCH_BASELINE) -tolerance 0.25 -calibrate query-cold -quiet

# The memory-diet harness: the indexed executor vs the naive join
# oracle, allocs/op and bytes/op cold vs warm, with answer identity
# enforced inside the experiment. Writes $(BENCH_MEM_JSON).
bench-mem:
	$(GO) run ./cmd/benchtab -experiment mem -benchjson $(BENCH_MEM_JSON) -quiet

# The memory-regression gate CI runs on every PR: a fresh mem run must
# not regress warm indexed allocs/op, bytes/op, or (calibrated) ns/op
# >25% against the committed $(BENCH_MEM_JSON). Allocation counts are
# machine-independent; the naive entries (untuned code) calibrate
# machine speed out of the timing ratios only.
bench-mem-gate:
	$(GO) run ./cmd/benchtab -experiment mem \
		-benchjson /tmp/BENCH_mem_fresh.json \
		-compare $(BENCH_MEM_JSON) -tolerance 0.25 \
		-gate mem-indexed/ -calibrate mem-naive/ -quiet

# This PR's benchmark: the disk-backed store tier — cold solve+append
# traffic (fsync every append) vs a same-process warm pass vs a full
# service reopen on the same directory, with zero solver runs enforced
# on the reopened service inside the experiment. Writes
# $(BENCH_PERSIST_JSON).
bench-persist:
	$(GO) run ./cmd/benchtab -experiment persist -benchjson $(BENCH_PERSIST_JSON) -quiet

# The persistence gate CI runs on every PR: a fresh persist run must
# not regress the warm or reopen suite aggregates >50% against the
# committed $(BENCH_PERSIST_JSON); the cold entries calibrate out
# machine speed. (The warm/reopen passes are sub-millisecond, hence
# the wider tolerance than the other gates; the hard zero-solver-runs
# wall is enforced inside the experiment itself, not by the ratio.)
bench-persist-gate:
	$(GO) run ./cmd/benchtab -experiment persist \
		-benchjson /tmp/BENCH_persist_fresh.json \
		-compare $(BENCH_PERSIST_JSON) -tolerance 0.50 \
		-gate persist-warm/suite,persist-reopen/suite \
		-calibrate persist-cold/ -quiet

# This PR's benchmark: incremental dataset maintenance — per delta
# batch, O(delta) layered index maintenance vs a full index rebuild vs
# a full re-upload (re-parse + re-index), over delta sizes 1/100/10k
# plus a mixed insert+delete bucket, with byte-identity, the
# maintenance-beats-rebuild wall, and the unchanged-data fast paths
# (zero index builds warm, parse-cache coalescing) enforced inside the
# experiment. Writes $(BENCH_INCR_JSON).
bench-incr:
	$(GO) run ./cmd/benchtab -experiment incr -benchjson $(BENCH_INCR_JSON) -quiet

# The incremental-maintenance gate CI runs on every PR: a fresh incr
# run must not regress the maint suite's (calibrated) ns/op or its
# machine-independent allocs/op >50% against the committed
# $(BENCH_INCR_JSON); the rebuild entries calibrate machine speed out
# of the timing ratios. (Per-batch times are sub-10ms and noisy, hence
# the wide tolerance; the hard maint-beats-rebuild and identity walls
# run inside the experiment itself.)
bench-incr-gate:
	$(GO) run ./cmd/benchtab -experiment incr \
		-benchjson /tmp/BENCH_incr_fresh.json \
		-compare $(BENCH_INCR_JSON) -tolerance 0.50 \
		-gate incr-maint/ -calibrate incr-rebuild/ -quiet

# The crash-recovery wall: kill -9 a child process mid-append, then
# assert the reopened log serves an intact contiguous prefix (torn
# tails truncated, never served corrupt), plus the torn-tail/bit-flip
# recovery table and the service-level warm restart (same directory
# and a byte copy of it).
crash-recovery:
	$(GO) test -race -count=1 \
		-run 'TestCrashRecovery|TestLogTornTail|TestLogBitFlip|TestDiskBackedServiceWarmRestart' \
		./internal/store ./internal/service

# The two-process warm-restart wall: boot a real htdserve with
# -store-dir, feed it jobs, kill -9, reboot on the same directory, and
# assert every repeat request is a cache hit with SolverRuns == 0.
warm-restart:
	./scripts/warm_restart.sh

# Capture heap/allocs/CPU profiles from a live htdserve under load via
# the -pprof-addr listener; writes them under $(PPROF_DIR) (default
# /tmp/htd-pprof). Nightly CI uploads the directory as an artifact.
pprof-capture:
	./scripts/capture_pprof.sh $(or $(PPROF_DIR),/tmp/htd-pprof)

# The live load wall (nightly CI): boots htdserve with the tenant wall
# armed, drives a greedy tenant at 10x its rate limit beside a polite
# tenant, and asserts the polite tenant's p99/error rate plus the
# whole-server p99 envelope. Writes $(LOAD_JSON) with per-tenant
# p50/p99/error-rate; LOAD_GATE_DURATION overrides the 10s run.
load-gate:
	./scripts/load_gate.sh $(LOAD_JSON)

# Store/service concurrency under the race detector, then the solver's
# parallel split (shared cursor, first-success cancel, early lease
# return) at several GOMAXPROCS values.
stress:
	$(GO) test -race -count=2 -run 'TestStoreStress|TestCoalescing|TestBatchDuplicates|TestServeCache|TestShardedConcurrency|TestFlight' ./internal/store ./internal/service ./cmd/htdserve
	$(GO) test -race -count=3 -cpu=1,2,4 -run 'TestParallel|TestNoCacheEquivalence|TestCancelledContext|TestRace' ./internal/logk ./internal/race

differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestConcurrentIdentical|TestEval|TestServeQuery' ./internal/query ./internal/join ./cmd/htdserve

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecomposeCheckHD -fuzztime=10s .
	$(GO) test -run=NONE -fuzz=FuzzParseQuery -fuzztime=10s ./internal/join
	$(GO) test -run=NONE -fuzz=FuzzLogReplay -fuzztime=10s ./internal/store

# The nightly workflow's long-form fuzz: 5 minutes per target.
fuzz-long:
	$(GO) test -run=NONE -fuzz=FuzzDecomposeCheckHD -fuzztime=5m .
	$(GO) test -run=NONE -fuzz=FuzzParseQuery -fuzztime=5m ./internal/join
	$(GO) test -run=NONE -fuzz=FuzzLogReplay -fuzztime=5m ./internal/store

# Fails on broken intra-repo links (and missing anchors) in committed
# Markdown files; mirrors the CI docs job.
docs-check:
	$(GO) run ./cmd/docscheck .

serve:
	$(GO) run ./cmd/htdserve

ci: fmt-check vet lint build race bench bench-gate bench-mem-gate bench-persist-gate bench-incr-gate crash-recovery warm-restart stress differential fuzz docs-check
