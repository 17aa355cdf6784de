# Local targets mirror .github/workflows/ci.yml one to one, so a green
# `make ci` means a green CI run (`make lint` needs staticcheck on PATH;
# the nightly workflow additionally runs `make fuzz-long`).
#
# Service performance is measured end to end by perfbench/ against a
# live htdserve (`bash perfbench/run.sh`, see perfbench/README.md);
# `make perfbench-smoke` runs it as a correctness wall. The allocation
# budgets (every Test*AllocBudget, in whichever package it pins) and the
# disk tier's I/O budget (TestDiskTierIOBudget) are plain `go test`
# tests, so `make test` and `make race` run them; list them with
# `grep -rn 'func Test.*AllocBudget' --include='*_test.go' .`.
# cmd/benchtab keeps the paper's experiments.

GO ?= go

.PHONY: all build fmt fmt-check vet lint test race bench perfbench-smoke crash-recovery warm-restart pprof-capture stress differential walls-check fuzz fuzz-long docs-check examples serve ci

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

# The end-to-end correctness wall: the perfbench module's own vet and
# generator tests, then every perfbench workload for a short fixed
# op list against a live htdserve. Every answer is checked (digests
# against an in-process replay, witness re-validation, /stats deltas,
# warm index reuse) and any failed check exits non-zero. No bounds are
# applied to the timings.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload all --seed 1 --seconds 2 --trace 0

# The crash-recovery wall: kill -9 a child process mid-append, then
# assert the reopened log serves an intact contiguous prefix (torn
# tails truncated, never served corrupt), plus the torn-tail/bit-flip
# recovery table, the single fsync of a compaction, the record of a
# call that compacts (served at once and after a reopen), the
# service-level warm restart (same directory and a byte copy of it)
# and the disk tier's exact I/O budget across a reopen.
crash-recovery:
	$(GO) test -race -count=1 \
		-run 'TestCrashRecovery|TestLogTornTail|TestLogBitFlip|TestLogCompactionFsyncsOnce|TestLogCompactingCallKeepsItsRecord|TestDiskBackedServiceWarmRestart|TestDiskTierIOBudget' \
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

# Store/service concurrency under the race detector (including the
# service's counter conservation under a concurrent mix of outcomes,
# the load wall: a greedy tenant at 10x its rate beside a polite one,
# whose every request is answered inside the p99 bounds while /stats
# accounts for every request sent: TestTenantIsolationUnderLoad,
# the one solver configuration every job runs, and identical queries
# sharing one bag cache: TestBagCacheConcurrent with the other bag-cache
# tests, a refutation stopped on its deadline resuming from the
# cross-request memo: TestMemoResumesStoppedRefutation, and a decide job
# answered NO by the structural lower bound without a search or a memo
# table, but not past its deadline: TestStructuralRefutation), then the
# solver's parallel
# split (shared cursor, first-success cancel, early lease return, no
# tokens once cancelled, per-worker counts folded without loss:
# TestParallelSplitCancelledTakesNoTokens, TestParallelStatsConservation),
# the memoised solver's answers against Algorithm 1's cache-free oracle
# (TestMemoMatchesBasicSolver), the optimal-width ladder (TestOptimal*:
# the serial optimum on known widths and 200 random hypergraphs, a
# deadline returning every token and keeping the proven bound, injected
# memo tables), the solver cross-check, the child-pool budget,
# log-k-decomp's rank counts and allocation budget on syn-cylinder-26
# (TestLogKAllocBudget), det-k-decomp's allocation budgets, its one
# split per refuted bag per search call (TestDetKRefutesBagOnce), its
# refutations shared across special-edge IDs
# (TestDetKRefutationIgnoresSpecialIDs) and its golden
# answers and witnesses (TestDetKSameDecompositions) at several
# GOMAXPROCS values. Last, log-k-decomp's golden answers, witnesses and
# exact rank counts at one worker, pure and hybrid
# (TestLogKSameDecompositions), once per GOMAXPROCS value: its search is
# serial, so a repeat reruns the same path, and at ~40 s a pass under
# -race three repeats would bring the logk binary near go test's
# 10-minute default timeout.
stress:
	$(GO) test -race -count=2 -run 'TestStoreStress|TestCoalescing|TestBatchDuplicates|TestServeCache|TestMemoryConcurrency|TestFlight|TestStatsConservation|TestOneSolverConfiguration|TestBagCache|TestMemoResumesStoppedRefutation|TestStructuralRefutation|TestTenantIsolationUnderLoad' ./internal/store ./internal/service ./cmd/htdserve ./internal/join ./internal/dataset
	$(GO) test -race -count=3 -cpu=1,2,4 -run 'TestParallel|TestMemoMatchesBasicSolver|TestCancelledContext|TestCrossValidationSolvers|TestOptimal|TestChildPool|TestLogKAllocBudget|TestDetKAllocBudget|TestDetKRefutesBagOnce|TestDetKRefutationIgnoresSpecialIDs|TestDetKSameDecompositions' ./internal/logk ./internal/detk
	$(GO) test -race -count=1 -cpu=1,2,4 -run 'TestLogKSameDecompositions' ./internal/logk

# The query differential suite under the race detector, plus the
# counters' walls: the planner's counter conservation, the dataset
# registry's monotone totals and the pinned /stats values; bag build's
# walls: its work counts, aggregate pushdown over bags in any column
# order, answer columns independent of IndexSets, and deduplicated
# inline databases; and the execution tree's walls: contracted
# plans independent of the solver, and contraction's properties on
# random optimal-width HDs of the width ladder; the bag cache's walls: warm hits, the row budget on
# a hit, concurrent identical queries and the snapshot scope; and the
# executor's abort walls: a cancellation at any context check returns
# context.Canceled, and the row budget fires inside the join loop; an
# aggregate past int64 fails instead of wrapping; no join of a row
# answer outgrows the answer (TestRowJoinsBoundedByAnswer); and the HTTP
# edge's status table: the status, Retry-After and error body of every
# endpoint and error class (TestEdgeStatusTable).
differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestConcurrentIdentical|TestEval|TestServeQuery|TestExecDuplicateRows|TestCanonical|TestStatsConservation|TestRegistryTotalsMonotone|TestStatsValuesGolden|TestAggregateBagColumnOrder|TestBagBuildSkipsNoOpWork|TestExecColumnsIndependentOfIndexSets|TestContractionSolverIndependent|TestContractionProperties|TestServeQueryInlineDuplicateTuples|TestBagCache|TestExecCancel|TestExecRowBudgetInsideJoinLoop|TestAggregateOverflow|TestRowJoinsBoundedByAnswer|TestEdgeStatusTable' ./internal/query ./internal/join ./internal/dataset ./cmd/htdserve

# A wall cannot silently lose a test: every alternative of the -run
# regexes in stress, crash-recovery and differential must match a test
# that `go test -list` finds in that command's packages.
walls-check:
	./scripts/check_walls.sh

# Every fuzz target, as package:Function. `make fuzz` (the CI smoke)
# and `make fuzz-long` (nightly) run each of them in turn, and
# `make walls-check` fails when a Fuzz function is missing here or a
# listed one no longer exists.
FUZZ_TARGETS = \
	.:FuzzDecomposeCheckHD \
	./internal/join:FuzzParseQuery \
	./internal/join:FuzzEvalDocument \
	./internal/store:FuzzLogReplay \
	./internal/dataset:FuzzMutateBatch \
	./internal/join:FuzzAnswerEncode

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

# Fails on broken intra-repo links (and missing anchors) in committed
# Markdown files; mirrors the CI docs job.
docs-check:
	$(GO) run ./cmd/docscheck .

# Runs every directory under examples/ (a glob, so an added or renamed
# example cannot drop out); each checks its own answers and exits
# non-zero on a wrong one.
examples:
	@set -e; for e in examples/*/; do \
		echo "$(GO) run ./$${e%/}"; \
		$(GO) run "./$${e%/}"; \
	done

serve:
	$(GO) run ./cmd/htdserve

ci: fmt-check vet lint build walls-check race bench examples perfbench-smoke crash-recovery warm-restart stress differential fuzz docs-check
