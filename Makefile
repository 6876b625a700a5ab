GO ?= go

.PHONY: ci vet lint build test race allocs flake loc examples perfbench-test chaos chaos-migrate chaos-rescale chaos-rebalance chaos-unaligned chaos-elastic chaos-ha chaos-multiapp bench-smoke bench-hotpath placement-bench bench-checkpoint bench-checkpoint-smoke bench-unaligned bench-unaligned-smoke rescale-bench rescale-bench-smoke elasticity-bench elasticity-bench-smoke ha-bench ha-bench-smoke skew-bench skew-bench-smoke fairness-bench fairness-bench-smoke

ci: vet lint build race allocs examples perfbench-test bench-smoke bench-checkpoint-smoke chaos chaos-migrate chaos-rescale chaos-rebalance chaos-unaligned chaos-elastic chaos-ha chaos-multiapp rescale-bench-smoke elasticity-bench-smoke skew-bench-smoke fairness-bench-smoke

vet:
	$(GO) vet ./...

# staticcheck when available; the CI workflow installs it, local runs
# without it just skip (no network installs from the build).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation regression tests (testing.AllocsPerRun) on the per-tuple
# path. They skip under -race, which allocates on its own, so they need
# this run without it.
allocs:
	$(GO) test -count=1 -run Allocs ./internal/...

# Flake hunt, not part of ci: FLAKE_N runs of the chaos and cluster suites
# under each of GOMAXPROCS=1, 2 and 8, with and without the race detector.
# Prints the pass count per setting and the failing tests of any failed
# run; exits 1 if any run failed. GOMAXPROCS=1 serializes the HAU loops,
# so interleavings differ most there.
FLAKE_N ?= 3
flake:
	@fail=0; \
	for procs in 1 2 8; do \
		for race in "" -race; do \
			pass=0; \
			for i in $$(seq $(FLAKE_N)); do \
				if out=$$(GOMAXPROCS=$$procs $(GO) test $$race -count=1 ./internal/chaos ./internal/cluster 2>&1); then \
					pass=$$((pass+1)); \
				else \
					fail=1; \
					echo "$$out" | grep -E '^(--- FAIL|FAIL|panic)'; \
				fi; \
			done; \
			echo "flake: GOMAXPROCS=$$procs $${race:-(no race)}: $$pass/$(FLAKE_N) passed"; \
		done; \
	done; \
	exit $$fail

# Size report, not part of ci: non-test Go lines (wc -l) per package
# directory outside perfbench/, then the total.
loc:
	@find . -path ./perfbench -prune -o -name '*.go' ! -name '*_test.go' -print0 | \
		xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^\\./", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Build and run every example program. Each checks its own result and
# exits non-zero through log.Fatal when the check fails.
examples:
	@for e in quickstart extensions bcp tmi signalguru; do \
		echo "examples: $$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# perfbench is a module of its own, so the root ./... never reaches it.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# One-iteration smoke run: catches a broken hot path without paying for a
# full measurement; real numbers go to BENCH_hotpath.json via bench-hotpath.
bench-smoke:
	$(GO) test -run NONE -bench BenchmarkHotPath -benchtime 1x .

bench-hotpath:
	$(GO) test -run NONE -bench BenchmarkHotPath -benchtime 2s .

# Chaos smoke: 3 fixed seeds per topology through the fault-injection
# harness under the race detector. A failing run prints the mschaos
# command that replays its schedule.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestChaosScheduleReproducible' ./internal/chaos/

# Chaos with rack-spread placement and live migrations enabled, including
# rounds that kill the migrating HAU's source or destination node while
# the move is in flight.
chaos-migrate:
	$(GO) test -race -count=1 -run 'TestChaosMigrationSmoke|TestChaosMidMigrationKill' ./internal/chaos/

# Re-partition chaos: live splits/merges injected between kill rounds,
# including rounds that kill a replica while the rescale is in flight.
chaos-rescale:
	$(GO) test -race -count=1 -run 'TestChaosRescaleSmoke|TestChaosMidSplitKill' ./internal/chaos/

# Hot-slot rebalance chaos: clean weighted slot moves between kill rounds
# plus rounds that kill a replica while the rebalance is in flight.
chaos-rebalance:
	$(GO) test -race -count=1 -run 'TestChaosMidRebalanceKill' ./internal/chaos/

# Unaligned-checkpoint chaos: both oracles across 3 seeds per topology
# under the race detector with -scheme unaligned, including rounds forced
# onto the mid-channel-log kill instant.
chaos-unaligned:
	$(GO) test -race -count=1 -run 'TestChaosUnaligned' ./internal/chaos/

# Fleet-elasticity chaos: clean grow/drain cycles between kill rounds plus
# the mid-scale-in and scale-in-destination kill instants, 3 seeds per
# topology under the race detector.
chaos-elastic:
	$(GO) test -race -count=1 -run 'TestChaosElastic|TestChaosMidScaleIn|TestChaosScaleInDest' ./internal/chaos/

# Hybrid fault-tolerance chaos: an active standby armed on each
# topology's victim, promote-or-rollback recovery, plus the forced
# primary-kill and standby-mid-promotion instants, 3 seeds per topology
# under the race detector.
chaos-ha:
	$(GO) test -race -count=1 -run 'TestChaosHA' ./internal/chaos/

# Multi-tenant chaos: two applications share one fleet; kills a node
# hosting HAUs of both tenants (independent per-app rollbacks) and a node
# hosting only one (co-tenant must not roll back), both oracles per app
# under the race detector.
chaos-multiapp:
	$(GO) test -race -count=1 -run 'TestMultiApp' ./internal/chaos/

# Hybrid fault-tolerance benchmark: hybrid failover vs pure-checkpoint
# rollback on the same nine-HAU chain and kill schedule, scored by the
# sink's interruption. Regenerates BENCH_ha.json.
ha-bench:
	$(GO) run ./cmd/msha

# Shortened msha phases printed to stdout: exercises arm/kill/promote and
# the rollback path with the same acceptance checks at a relaxed ratio gate.
ha-bench-smoke:
	$(GO) run ./cmd/msha -quick -out -

# Fleet-elasticity benchmark: flash-crowd and diurnal workloads, elastic
# fleet vs a static two-node baseline, with the exactly-once oracle checked
# across every scale action. Regenerates BENCH_elasticity.json.
elasticity-bench:
	$(GO) run ./cmd/mselastic

# Shortened mselastic phases printed to stdout: exercises the full
# grow/shrink loop and its acceptance checks without the full phase grid.
elasticity-bench-smoke:
	$(GO) run ./cmd/mselastic -quick -out -

# Checkpoint datapath benchmark: freeze window vs dirty fraction, delta
# writes, parallel restore. Regenerates BENCH_checkpoint.json.
bench-checkpoint:
	$(GO) run ./cmd/msckpt

# Alignment ablation: aligned vs unaligned checkpoint completion across
# fan-in x backpressure x edge-batch. Regenerates BENCH_unaligned.json.
bench-unaligned:
	$(GO) run ./cmd/msalign

# Reduced-grid msalign under the race detector: exercises the unaligned
# capture/seal/restore datapath without paying for the full sweep.
bench-unaligned-smoke:
	$(GO) run -race ./cmd/msalign -quick -out -

# One-iteration smoke of the checkpoint suite under the race detector:
# exercises incremental capture, the off-loop writer and the restore
# worker pool without paying for the full grid.
bench-checkpoint-smoke:
	$(GO) test -race -run NONE -bench BenchmarkCheckpoint -benchtime 1x .

# Placement benchmark: burst loss at DC scale (round-robin vs rack-spread),
# live-cluster rack-burst recovery, and migration downtime vs state size.
# Regenerates BENCH_placement.json.
placement-bench:
	$(GO) run ./cmd/msplace

# Re-partitioning benchmark: split/merge downtime vs state size and sink
# throughput vs replica count on a skewed-key pair stage. Regenerates
# BENCH_rescale.json.
rescale-bench:
	$(GO) run ./cmd/msscale

# Reduced-grid msscale under the race detector: exercises live split and
# merge on a streaming cluster without paying for the full sweep.
rescale-bench-smoke:
	$(GO) run -race ./cmd/msscale -quick -out -

# Skew benchmark: weighted vs count-balanced 4-way splits under Zipf key
# skew, plus the drifting-hotspot rebalance. Regenerates BENCH_skew.json
# and fails if the weighted split or the rebalance misses its gate.
skew-bench:
	$(GO) run ./cmd/msskew

# Reduced-grid msskew under the race detector: exercises weighted split,
# observed-load accounting and RebalanceHAU with the gates still armed.
skew-bench-smoke:
	$(GO) run -race ./cmd/msskew -quick -out -

# Multi-tenant fairness benchmark: a light and a heavy tenant share one
# fleet under 3:1 and 1:1 weights through a flash crowd, then a shared
# node is killed to check per-app recovery isolation. Regenerates
# BENCH_fairness.json and fails on a fairness-band or isolation miss.
fairness-bench:
	$(GO) run ./cmd/msfair

# Shortened msfair phases printed to stdout: exercises the arbiter loop
# and the kill/recovery isolation checks; the fairness bands are reported
# but only correctness gates fail the run.
fairness-bench-smoke:
	$(GO) run ./cmd/msfair -quick -out -
