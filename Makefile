# Developer entry points. `make check` is the pre-commit gate: it runs
# exactly what the repo treats as tier-1 (build + tests) plus vet, and
# `make race` covers the packages with lock-free fast paths.

GO ?= go

.PHONY: all build test race fuzz-smoke vet check experiments crash-test migrate-test obs-test store-matrix store-test

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The fast-path packages (sharded binding cache, lock-slimmed rt,
# pooled transports, the frame codec and the tracer: CI's invocation
# path race step), the durability layer (checkpoint loop vs dispatch vs
# failover), the migration + scheduling packages CI races, and the
# virtual clock with the breaker that runs on it are the ones worth
# paying the race detector for.
race:
	$(GO) test -race ./internal/binding ./internal/rt ./internal/transport \
		./internal/wire ./internal/trace ./internal/persist ./internal/magistrate \
		./internal/sched ./internal/host ./internal/obs ./internal/metrics \
		./internal/debughttp ./internal/class ./internal/bindagent \
		./internal/naming ./internal/core ./internal/clock ./internal/health

# Crash-recovery smoke: the chaos/recovery tests and a quick E18 run
# (host failover, churn with checkpoints, full -data-dir restart).
crash-test:
	$(GO) test -race ./internal/persist ./internal/magistrate
	$(GO) test -race -run 'TestCrash|TestRestart|TestHealthDetector' ./internal/core ./internal/sim
	$(GO) run ./cmd/legion-bench -quick -run E18

# Live-migration gauntlet: the FIFO storm (both transports, leak
# tracking on), the magistrate migration/rebalance tests, and a quick
# E19 run (crash injection at every phase boundary + rebalancer).
migrate-test:
	$(GO) test -race -run 'TestMigrationStormFIFO|TestStaleBindingRefreshAfterMigration' ./internal/rt
	$(GO) test -race -tags buftrack -run TestMigrationStormFIFO ./internal/rt
	$(GO) test -race ./internal/sched ./internal/host ./internal/magistrate
	$(GO) run ./cmd/legion-bench -quick -run E19

# Observability plane: the one lock-free ring (flight recorder, spans,
# epochs, remote events) and exemplar histograms under the race
# detector, the ring's concurrent put/snapshot test on several core
# counts, the debug surface scraped during live churn, the wire'd LQL
# path, and E20 (five canned operator queries against a cluster under
# migration).
RING_RUN = TestRingConcurrentPutSnapshot

obs-test:
	$(call check-run,./internal/trace,$(RING_RUN))
	$(GO) test -race ./internal/obs ./internal/metrics ./internal/debughttp ./internal/trace
	$(GO) test -race -cpu 1,2,4,8 -run '$(RING_RUN)' ./internal/trace
	$(GO) test -race -run 'TestLiveLQLOverTheWire' ./internal/sim
	$(GO) test -run 'TestAllQuick/E20$$' ./internal/experiments

# check-run PKGS,REGEX fails unless every |-separated alternative of a
# -run REGEX names at least one test in PKGS, so renaming a test cannot
# silently drop it from a matrix.
define check-run
	@for t in $$(echo '$(2)' | tr '|' ' '); do \
		$(GO) test -list "^$$t" $(1) | grep -q "^$$t" || { echo "no test in $(1) matches -run $$t"; exit 1; }; \
	done
endef

STORE_RUN = TestSegment|TestBackendConformance|TestWriteFileAtomic
RESTART_RUN = TestCrash|TestRestart
LIFECYCLE_RUN = TestResidentCountsMatchTable|TestConcurrentActivationRace|TestHostFailedRecovery|TestStartRound|TestDeleteDuringDeactivate|TestDeactivateHostDiesUnderClaim|TestDeactivatePutFails|TestInstantiateRedelivery|TestInstantiateSetPlacesAsLone

# Storage fault matrix: the fault-injected recovery tests (torn writes,
# fsync errors, crash tails, mid-compaction crashes), the backend
# conformance suite and the atomic snapshot write under the race
# detector, then the chaos tests driven over the segment backend, then
# the Magistrate's lifecycle tests (start round, set instantiation,
# recovery, resident counts) on several core counts.
store-matrix:
	$(call check-run,./internal/persist,$(STORE_RUN))
	$(call check-run,./internal/core ./internal/sim,$(RESTART_RUN))
	$(call check-run,./internal/magistrate,$(LIFECYCLE_RUN))
	$(GO) test -race -run '$(STORE_RUN)' ./internal/persist
	$(GO) test -race -run '$(RESTART_RUN)' ./internal/core ./internal/sim
	$(GO) test -race -count 2 -cpu 1,2,4,8 -run '$(LIFECYCLE_RUN)' ./internal/magistrate

# Storage engine gauntlet: the fault matrix and E21.
store-test: store-matrix
	$(GO) test -run 'TestAllQuick/E21$$' ./internal/experiments

# Short fuzz pass over the wire decoder (v4 frames, the one version
# parsed), the segment-record/snapshot codec and every state, OPR and
# reply decoder: enough to catch a freshly introduced parser panic
# without tying up CI.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParseFrame -fuzztime 15s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzSegmentRecord -fuzztime 15s ./internal/persist
	$(GO) test -run xxx -fuzz FuzzDecoders -fuzztime 15s ./internal/core

# vet also fails when any file needs gofmt.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: build vet test race

# The EXPERIMENTS.md harness (full scale; add ARGS=-quick for a fast pass).
experiments:
	$(GO) run ./cmd/legion-bench $(ARGS)
