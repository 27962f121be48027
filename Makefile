# Pre-merge gate: `make check` is the required bar for every change (see
# README "Install & test"). Each target is also usable on its own. The gate
# checks correctness only: speed is measured by `go run ./benchmark`
# (BENCHMARK.json), whose five workloads `go test ./benchmark` smoke-runs
# inside `make race`.

GO ?= go

.PHONY: check fmt vet test race build bench bench-smoke profile-stream profile-learn equiv alloc-guard cli-smoke fuzz-smoke

check: fmt vet race equiv alloc-guard bench-smoke cli-smoke fuzz-smoke

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The grouper keeps plain tallies and internal/stream publishes them (DESIGN
# "Observability"); an obs import in internal/grouping is a second book
# growing back, so it fails here. Test files are not in .Imports.
# A socket reaches a streamer through one composition, streamrun.Live (the
# benchmark keeps its own until it is ported); a collector.New call in any
# other non-test file is a second live path growing back, so it fails too.
# Learning fans out over runtime.GOMAXPROCS, read in internal/par alone (the
# benchmark records it as run metadata); a call in any other non-test file
# is a per-stage worker knob growing back, so it fails as well.
vet:
	$(GO) vet ./...
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/grouping | grep -qx 'syslogdigest/internal/obs'; then \
		echo "internal/grouping imports internal/obs: keep tallies there, publish them in internal/stream"; exit 1; \
	fi
	@bad=$$(find . -path './.*' -prune -o -path ./benchmark -prune -o -path ./internal/streamrun -prune -o \
		-path ./internal/collector -prune -o -name '*.go' ! -name '*_test.go' -print | xargs grep -l 'collector\.New(' ); \
	if [ -n "$$bad" ]; then \
		echo "collector.New outside internal/streamrun: compose the live path with streamrun.StartLive in" $$bad; exit 1; \
	fi
	@bad=$$(find . -path './.*' -prune -o -path ./benchmark -prune -o -path ./internal/par -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs grep -l 'runtime\.GOMAXPROCS(' ); \
	if [ -n "$$bad" ]; then \
		echo "runtime.GOMAXPROCS outside internal/par: fan out with par.ForEach, par.Chunks or par.Map in" $$bad; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector, the differential harness
# (TestDifferential) included, within go test's default 10-minute package
# timeout: internal/core, the slowest package, takes about 4 minutes on a
# 2-CPU host (234–259 s; 279–345 s before the checkpoint envelope made one
# pass over its payload), so a package that runs past 10 minutes is hung,
# not slow.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# One iteration of every stage and micro benchmark: catches benchmarks that
# no longer compile or crash without paying for a full timed run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkStage|BenchmarkMicro)' -benchtime=1x .

# CPU profile of the streaming hot path while working on it: the serial,
# sharded and 2-shard loopback cluster Streamer over corpus A (the cluster
# row puts dispatcher, wire and shards in one profile), the RouterLocal.Step
# micro shapes, and augment on a storm-shaped feed with the match cache off
# (the miss path alone) and on (the miss path plus the cache's own cost).
# The profile and the test binary go to PROFILE_DIR, outside the tree (a
# profile is a build product of one commit on one host, not a source file);
# read it with `go tool pprof -top` or `-list ruleStep`. Not a measurement:
# claims are made with `go run ./benchmark`.
PROFILE_DIR ?= /tmp/syslogdigest-profiles
profile-stream:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStageStream|BenchmarkMicroRuleStep|BenchmarkMicroAugmentMiss|BenchmarkMicroAugmentCached' \
		-cpuprofile $(PROFILE_DIR)/stream.cpu.prof -o $(PROFILE_DIR)/syslogdigest.test .
	@echo "go tool pprof -top $(PROFILE_DIR)/syslogdigest.test $(PROFILE_DIR)/stream.cpu.prof"

# CPU profile of offline learning, the same way: the whole Learner (template
# learning, augmenting the history, temporal calibration, rule mining) over
# corpus A, template learning alone over corpus A and over the storm-shaped
# feed (nearly every detail distinct: the learner's worst case), and rule
# mining alone. Output in PROFILE_DIR; for looking, not for claims.
profile-learn:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStageLearn$$|BenchmarkStageTemplateLearning|BenchmarkStageRuleMining' \
		-cpuprofile $(PROFILE_DIR)/learn.cpu.prof -o $(PROFILE_DIR)/syslogdigest.test .
	@echo "go tool pprof -top $(PROFILE_DIR)/syslogdigest.test $(PROFILE_DIR)/learn.cpu.prof"

# The differential harness once more without the race detector, as the
# fast standalone equivalence gate (`make race` already runs it under
# -race): every run shape — serial, sharded, clustered over loopback TCP,
# killed and restored across shapes, shards killed and reconnected, with and
# without the provisional tier — must deliver the serial uninterrupted run's
# final and update transcripts byte for byte, on both vendor corpora, the
# flap storm and seeded random plans, with the wire, pool and per-shard
# books reconciling (see internal/core/differential_test.go). A failing
# random plan replays alone: go test -run 'TestDifferential/random/seed=N'.
# Every shape above resumes provisional events through the same
# accumulators, so two oracles run beside it: every record the serial
# engine publishes equals a fresh build of its membership
# (TestPublishedRecordsMatchFreshBuilds), and Builder.Extend equals a full
# build bit for bit under growth, merges and table changes
# (TestExtendMatchesFullBuild). A version-1 checkpoint, which also kept
# copies of the engine's progress, must restore into the streamer today's
# snapshot of the same state does, serial and sharded
# (TestRestoreVersion1Snapshot), and a version-2 checkpoint an earlier build
# wrote must restore and snapshot again byte for byte
# (TestRestoreCommittedSnapshot). Across commits, the knowledge bases, batch
# digests, streaming transcripts, a flushed snapshot and the batch digest's
# match counters must equal the values in internal/core/testdata/golden.json
# (TestGolden; a change that moves output on purpose rewrites the file with
# -update and names the entries that moved).
equiv:
	$(GO) test -run 'TestDifferential|TestPublishedRecordsMatchFreshBuilds|TestRestoreVersion1Snapshot|TestRestoreCommittedSnapshot|TestGolden' -count=1 ./internal/core
	$(GO) test -run TestExtendMatchesFullBuild -count=1 ./internal/event

# The steady-state allocation gate: testing.AllocsPerRun over the vendor
# corpus (serial, sharded, and the dispatcher side of a 2-shard loopback
# cluster) and the storm corpus must stay at or under one heap allocation
# per pushed message, net of open-state growth; with the provisional tier on
# and one large group revised every sixth push (TestStreamAllocsProvisional,
# serial and 2 workers), at or under 3 allocations and 12 KiB per push, and
# its revisions folding one member into the event builder per push, not the
# whole group per revision (see internal/core/alloc_guard_test.go).
alloc-guard:
	$(GO) test -run 'TestStreamAllocs' -count=1 ./internal/core

# The command-line surfaces end to end, on binaries built into a temporary
# directory (sdgen, sdlearn, sddigest, sdreplay, sdcollect, sdbench): the
# removed worker and match-cache flags must each exit 2, and sdgen -> sdlearn
# -> sddigest, then the same corpus through `sddigest -stream` (digest
# lines, and NDJSON with -json), a `sddigest -stream -checkpoint` run killed
# and started again, and `sdreplay -tcp` into a live `sdcollect`, stopped
# with SIGINT, once draining and once with -checkpoint and a restart that
# must restore it. Every surface must report the batch digest's event
# count; the killed and resumed runs between them, and sdcollect, must
# print the uninterrupted stream's lines, and sdcollect must receive every
# message.
cli-smoke:
	$(GO) test -run 'TestCLISmoke' -count=1 ./cmd/...

# Ten seconds of fuzzing each for the fuzzers that guard damaged state:
# checkpoint bytes restored into the serial and sharded streamer
# (FuzzRestoreStreamer), a shard's part-state restored the way a shard
# server applies a Restore frame (FuzzRestoreLocal), state frames off the
# cluster wire (FuzzDecodeState), Restore frame bytes taken down the
# shard's whole restore path — decode, RestoreLocal, a probe Step
# (FuzzRestoreFrame), and Hello bytes taken down the shard's handshake —
# decode, NewShardable, NewLocal, a probe Step (FuzzHello), and Decisions
# frames, every field required, which must re-encode to what they decoded
# to (FuzzDecodeDecisions); and for the streamer's reorder front end under
# arbitrary arrival times, tolerance and cap, whose books must balance
# after every call (FuzzStreamerFrontEnd); for the collector's input, raw
# syslog lines in any wire format, each accepted one with a router and a
# code, and an accepted RFC 3164 line dated on the month and day it says
# (FuzzParseWire); and for token classification, trimming and
# tokenizing, which must agree with their straightforward references on any
# input (FuzzClassify); and for the offline learner, the temporal sweep's
# one-pass scoring against a GroupStream replay per grid point
# (FuzzCalibrate) and dense rule counting against the map-based reference
# (FuzzMineStream), on any streams and grid, and template learning, which
# reads each distinct (code, detail) once weighted by its count, against
# the per-message reference, at GOMAXPROCS 1 and 4, masked and unmasked, on
# any corpus of repeated and interleaved lines (FuzzLearnTemplates), and
# the rule base's partner
# lists against a recomputation from its rule map after any sequence of
# adds, removes and updates over template IDs on both sides of 8 192
# (FuzzRuleBase); and for the collector's TCP
# connection reader, whose reader/delivery pipeline must deliver, count and
# report what the single-goroutine reference loop does on any bytes split
# into any writes under a 16–64-byte line cap (FuzzConnReader). None may
# panic or fail; a
# crasher lands in the package's testdata/fuzz and fails plain `go test`
# from then on. FuzzDecodeState is
# seeded with a real part of several kilobytes, and FuzzLearnTemplates with
# a generated corpus of a thousand messages; minimizing each new input that
# size would take the whole ten seconds, so each gets one second per input
# instead of the default minute.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreStreamer$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzStreamerFrontEnd$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreLocal$$' -fuzztime=10s ./internal/grouping
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreFrame$$' -fuzztime=10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzHello$$' -fuzztime=10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDecisions$$' -fuzztime=10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseWire$$' -fuzztime=10s ./internal/syslogmsg
	$(GO) test -run '^$$' -fuzz '^FuzzClassify$$' -fuzztime=10s ./internal/textutil
	$(GO) test -run '^$$' -fuzz '^FuzzCalibrate$$' -fuzztime=10s ./internal/temporal
	$(GO) test -run '^$$' -fuzz '^FuzzMineStream$$' -fuzztime=10s ./internal/rules
	$(GO) test -run '^$$' -fuzz '^FuzzLearnTemplates$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/template
	$(GO) test -run '^$$' -fuzz '^FuzzRuleBase$$' -fuzztime=10s ./internal/rules
	$(GO) test -run '^$$' -fuzz '^FuzzConnReader$$' -fuzztime=10s ./internal/collector
