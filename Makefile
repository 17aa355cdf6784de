# `go test ./...` is the one deterministic gate: besides the unit and
# differential tests it runs the docs check (TestRepositoryDocs), every
# example (TestExamplesRun), gofmt (TestGofmt), the allocation budgets
# (every Test*AllocBudget) and the disk tier's I/O budget
# (TestDiskTierIOBudget). The targets below add what a plain run does
# not: the race detector, repetition at several -cpu values, fuzzing,
# staticcheck and the perfbench end-to-end wall.
#
# CI (.github/workflows/ci.yml) runs these targets and nothing else, so
# a green `make ci` means a green CI run (`make lint` needs staticcheck
# on PATH; the nightly workflow adds `make fuzz-long` and
# `make pprof-capture`). TestMakeTargetsExist (root package) fails when
# a workflow, `ci` or .PHONY names a target that is not defined here,
# and TestWallsSelectExistingTests when a `-run '...'` alternative below
# matches no test or FUZZ_TARGETS misses a Fuzz function, so a renamed
# test cannot silently drop out of a wall.
#
# Service performance is measured end to end by perfbench/ against a
# live htdserve (`bash perfbench/run.sh`, see perfbench/README.md);
# `make perfbench-smoke` runs it as a correctness wall.
# cmd/benchtab keeps the paper's experiments.

GO ?= go

.PHONY: all build fmt vet lint test race bench perfbench-smoke pprof-capture stress fuzz fuzz-long serve ci

all: build

build:
	$(GO) build ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The CI lint job runs it. Install the pinned version with:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
lint:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; exit 1; }
	staticcheck ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end correctness wall: the perfbench module's own vet and
# generator tests, then every perfbench workload for a short fixed
# op list against a live htdserve. Every answer is checked (digests
# against an in-process replay, witness re-validation, /stats deltas,
# warm index reuse) and any failed check exits non-zero. No bounds are
# applied to the timings.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload all --seed 1 --seconds 2 --trace 0

# Capture heap/allocs/CPU profiles from a live htdserve under load via
# the -pprof-addr listener; writes them under $(PPROF_DIR) (default
# /tmp/htd-pprof). Nightly CI uploads the directory as an artifact.
pprof-capture:
	./scripts/capture_pprof.sh $(or $(PPROF_DIR),/tmp/htd-pprof)

# Repetition under the race detector, which `make race` runs once.
# Twice each: store/service concurrency (concurrent Submit/Batch, log
# Compact + Sync, coalescing, counter conservation, identical queries
# sharing one bag cache, a stopped refutation resuming from the memo,
# structural refutations) and the tenant load wall
# (TestTenantIsolationUnderLoad). Three times at each of -cpu=1,2,4:
# the solver's parallel split, the memoised solver against Algorithm
# 1's cache-free oracle (TestMemoMatchesBasicSolver), the optimal-width
# ladder (TestOptimal*), the solver cross-check, the child-pool budget,
# the log-k and det-k allocation budgets, det-k-decomp's one split per
# refuted bag, its refutations shared across special-edge IDs and its
# golden answers and witnesses (TestDetKSameDecompositions). Last,
# log-k-decomp's golden answers, witnesses and exact rank counts
# (TestLogKSameDecompositions) once per -cpu value: its search is
# serial, so a repeat reruns the same path, and at ~40 s a pass under
# -race three repeats would bring the logk binary near go test's
# 10-minute default timeout.
stress:
	$(GO) test -race -count=2 -run 'TestStoreStress|TestCoalescing|TestBatchDuplicates|TestServeCache|TestMemoryConcurrency|TestFlight|TestStatsConservation|TestOneSolverConfiguration|TestBagCache|TestMemoResumesStoppedRefutation|TestStructuralRefutation|TestDecideSearchesWidthKAlone|TestTenantIsolationUnderLoad|TestLogConcurrency|TestTieredConcurrency|TestLogFaultRules' ./internal/store ./internal/service ./cmd/htdserve ./internal/join ./internal/dataset
	$(GO) test -race -count=3 -cpu=1,2,4 -run 'TestParallel|TestMemoMatchesBasicSolver|TestCancelledContext|TestCrossValidationSolvers|TestOptimal|TestChildPool|TestLogKAllocBudget|TestDetKAllocBudget|TestDetKRefutesBagOnce|TestDetKRefutationIgnoresSpecialIDs|TestDetKSameDecompositions|TestDetKBudget|TestArmBudgetCounts|TestServeRungMemoOnFallback' ./internal/logk ./internal/detk
	$(GO) test -race -count=1 -cpu=1,2,4 -run 'TestLogKSameDecompositions' ./internal/logk

# Every fuzz target, as package:Function. `make fuzz` (the CI smoke)
# and `make fuzz-long` (nightly) run each of them in turn, and
# TestWallsSelectExistingTests fails when a Fuzz function is missing
# here or a listed one no longer exists.
FUZZ_TARGETS = \
	.:FuzzDecomposeCheckHD \
	./internal/join:FuzzParseQuery \
	./internal/join:FuzzEvalDocument \
	./internal/store:FuzzLogReplay \
	./internal/dataset:FuzzMutateBatch \
	./internal/join:FuzzAnswerEncode \
	./internal/hypergraph:FuzzTreewidthThree \
	./internal/detk:FuzzGHDMatchesExactGHW

# $(call fuzz-each,TIME) fuzzes every target for TIME.
define fuzz-each
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test -run=NONE -fuzz=^$${t#*:}\$$ -fuzztime=$(1) $${t%%:*}"; \
		$(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=$(1) "$${t%%:*}"; \
	done
endef

fuzz:
	$(call fuzz-each,10s)

# The nightly workflow's long-form fuzz: 5 minutes per target.
fuzz-long:
	$(call fuzz-each,5m)

serve:
	$(GO) run ./cmd/htdserve

ci: vet lint build race bench perfbench-smoke stress fuzz
