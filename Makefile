# Pre-merge gate: `make check` is the required bar for every change (see
# README "Install & test"). Each target is also usable on its own. The gate
# checks correctness only: speed is measured by `go run ./benchmark`
# (BENCHMARK.json), whose five workloads `go test ./benchmark` smoke-runs
# inside `make race`.

GO ?= go

.PHONY: check fmt vet test race build bench bench-smoke profile-stream stream-equiv checkpoint-equiv provisional-equiv cluster-equiv alloc-guard cli-smoke

check: fmt vet race stream-equiv checkpoint-equiv provisional-equiv cluster-equiv alloc-guard bench-smoke cli-smoke

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The grouper keeps plain tallies and internal/stream publishes them (DESIGN
# "Observability"); an obs import in internal/grouping is a second book
# growing back, so it fails here. Test files are not in .Imports.
vet:
	$(GO) vet ./...
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/grouping | grep -qx 'syslogdigest/internal/obs'; then \
		echo "internal/grouping imports internal/obs: keep tallies there, publish them in internal/stream"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The differential suites (stream/checkpoint/provisional equivalence) all
# live in internal/core and together exceed go test's default 10m package
# timeout under the race detector on small hosts; the explicit timeout is
# headroom, not a hang allowance.
race:
	$(GO) test -race -timeout 40m ./...

bench:
	$(GO) test -bench=. -benchmem

# One iteration of every stage and micro benchmark: catches benchmarks that
# no longer compile or crash without paying for a full timed run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkStage|BenchmarkMicro)' -benchtime=1x .

# CPU profile of the streaming hot path while working on it: the serial and
# sharded Streamer over corpus A plus the RouterLocal.Step micro shapes.
# The profile and the test binary go to PROFILE_DIR, outside the tree (a
# profile is a build product of one commit on one host, not a source file);
# read it with `go tool pprof -top` or `-list ruleStep`. Not a measurement:
# claims are made with `go run ./benchmark`.
PROFILE_DIR ?= /tmp/syslogdigest-profiles
profile-stream:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStageStream|BenchmarkMicroRuleStep' \
		-cpuprofile $(PROFILE_DIR)/stream.cpu.prof -o $(PROFILE_DIR)/syslogdigest.test .
	@echo "go tool pprof -top $(PROFILE_DIR)/syslogdigest.test $(PROFILE_DIR)/stream.cpu.prof"

# The streaming-equivalence smoke: the incremental engine must reproduce the
# batch oracle's events on both vendor corpora at serial and parallel
# settings, and the router-sharded engine must reproduce the serial engine
# byte for byte at every worker count (the full differential suite runs
# under `make race`).
stream-equiv:
	$(GO) test -run 'TestStreamingMatchesBatch|TestShardedMatchesSerial' -count=1 ./internal/core

# The kill/restore differential under the race detector: a run snapshotted,
# torn down, and restored at 20 random points (both corpora, serial and
# sharded) must emit byte-for-byte what the uninterrupted run emits — each
# event exactly once.
checkpoint-equiv:
	$(GO) test -race -run 'TestCheckpointRestoreEquivalence|TestCheckpointRestoreAcrossWorkerCounts|TestCheckpointPoolIndependence' -count=1 ./internal/core

# The two-tier emission differentials: with the provisional tier on, the
# final event stream must stay byte-identical to the provisional-off run
# (both corpora, serial and sharded), and a run killed/restored at 20
# random points must deliver each (EventID, Revision) exactly once —
# byte-for-byte the uninterrupted run's update transcript. Run without
# -race here as the fast standalone smoke; the same tests run under the
# race detector in `make race` (both are in `make check`).
provisional-equiv:
	$(GO) test -run 'TestProvisionalFinalEquivalence|TestProvisionalCheckpointExactlyOnce|TestProvisionalSupersedeStorm' -count=1 ./internal/core

# The cluster differential under the race detector: the engine distributed
# over TCP-loopback shard servers at 1/2/4 shards — including 10 random
# shard-kill/reconnect points and checkpoint/restore across engine shapes —
# must emit byte-for-byte what the serial in-process engine emits on both
# corpora, final events and provisional update stream alike, with the wire
# metrics reconciling exactly (batches acked == punctuations applied per
# shard, reconnect counter == kills x shards).
cluster-equiv:
	$(GO) test -race -run 'TestClusterMatchesSerial|TestClusterStreamerMatchesSerial|TestClusterKillReconnect|TestClusterCheckpointRestore' -count=1 -timeout 20m ./internal/core

# The steady-state allocation gate: testing.AllocsPerRun over the vendor
# corpus (serial, sharded, and the dispatcher side of a 2-shard loopback
# cluster) and the storm corpus must stay at or under one heap allocation
# per pushed message, net of open-state growth; with the provisional tier on
# and one large group revised every sixth push (TestStreamAllocsProvisional,
# serial and 2 workers), at or under 3 allocations and 12 KiB per push (see
# internal/core/alloc_guard_test.go).
alloc-guard:
	$(GO) test -run 'TestStreamAllocs' -count=1 ./internal/core

# The command-line surfaces end to end, on binaries built into a temporary
# directory: sdgen -> sdlearn -> sddigest, then the same corpus through
# `sddigest -stream` (digest lines, and NDJSON with -json), `sdreplay -kb`,
# and an `sdreplay -kb -checkpoint` run killed and started again — every
# surface must report the batch digest's event count, and the killed and
# resumed runs between them must print the uninterrupted run's lines.
cli-smoke:
	$(GO) test -run 'TestCLISmoke' -count=1 ./cmd/...
