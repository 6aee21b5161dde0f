# Development targets for the vtmig reproduction. `make ci` is the gate
# run before merging — GitHub Actions runs it on every push and pull
# request (.github/workflows/ci.yml, with Go build/module caching): vet,
# gofmt cleanliness, build, race-enabled tests (which exercise the
# experiment worker pool under the race detector), the determinism suites
# re-run under -race (race-determinism: vectorized collection, online
# learning, checkpoint/resume, and the region-sharded simulator), the
# serving crash-recovery smoke (serve-smoke), and a short benchmark smoke
# pass over the PPO hot path.
#
# Benchmark regressions are gated by tools/benchdiff, which diffs two
# recordings — BENCH_*.json snapshots or raw `go test -bench -benchmem`
# output — and exits non-zero on >15 % ns/op growth or any allocs/op
# increase. `make bench-compare` measures a fresh short pass of the hot
# paths and diffs it against the latest snapshot (override BASE to pin an
# older snapshot); to diff two arbitrary recordings run the tool
# directly:
#
#	make bench-compare
#	make bench-compare BASE=BENCH_pr2.json
#	go run ./tools/benchdiff BENCH_pr2.json BENCH_pr3.json
#
# CI runs bench-compare as an advisory job; shared-runner timing noise
# makes the ns/op gate informative rather than blocking there, while the
# allocs/op gate is exact everywhere.

GO ?= go

# BASE is the snapshot bench-compare measures against: the newest
# BENCH_pr*.json in version order.
BASE ?= $(shell ls BENCH_pr*.json | sort -V | tail -n1)
# BENCH_HOT selects the hot-path benchmarks bench-compare re-measures.
BENCH_HOT = PPOUpdate$$|PPOSelectAction|MLPForward$$|Evaluate|SolveScratch|Collect|TrainerEpisode|StreamCollect|SimRoundOnline|Snapshot|Resume|CheckpointJSON|CheckpointBinary|ServeQuote|SimFleetSharded

.PHONY: all vet fmt-check build test race race-determinism serve-smoke bench-smoke bench bench-compare bench-multicore golden golden-drift ci

all: ci

vet:
	$(GO) vet ./...

# fmt-check fails when any file needs gofmt (CI cleanliness gate).
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the worker-pool and
# parallel-sweep tests make data races in the experiment fan-out fail
# loudly here.
race:
	$(GO) test -race ./...

# race-determinism re-runs the determinism layer under the race detector.
# The first pass (-count=2) covers the rule-4 vectorized-collection
# worker×GOMAXPROCS tables, the rule-5 online continual-learning and
# stream-collector tables, and the rule-6 snapshot-at-K-then-train-K
# resume tables (CollectWorkers and GOMAXPROCS differing between the
# legs). The second pass (-count=1) covers the rule-7 region-sharded
# simulator: the region-count × GOMAXPROCS bit-identity tables (sim- and
# scenario-level, online pricer included), the per-step shard invariants
# under churn and outages, and the FuzzShardPartition seed corpus. The
# tables pin worker, region and GOMAXPROCS values above the host's core
# count, so a race or a merge-order bug fails here even on a single-core
# CI box.
race-determinism:
	$(GO) test -race -count=2 -run 'VecCollect|VecAuto|VecMerge|VecGAE|VecTrainer|VecEnv|SingleEnvTrainer|SelectActionBatch|Online|Stream|Resume|Snapshot|Checkpoint|Clone|CountingSource' ./internal/rl ./internal/pomdp ./internal/nn ./internal/mathx ./internal/sim
	$(GO) test -race -count=1 -run 'Shard|RegionOf|Rule7|DiscardMigration' ./internal/sim ./internal/scenario

# serve-smoke pins the serving layer's crash-recovery story under the
# race detector: quote against a live daemon, kill it mid-run, reopen the
# state directory (checkpoint restore + journal replay), and assert the
# recovered quotes and learner weights are bit-identical to an
# uninterrupted run — plus the journal edge cases (torn trailing line,
# rotated-away checkpoint, mid-file corruption, the FuzzJournalRecover
# seed corpus) and the daemon-level restart-resume flow. The Batch,
# Replica, and Shutdown arms pin contract rule 8 (batch size × prework
# workers bit-identical to serial intake; replica byte-identical to the
# primary at the same snapshot; batched crash recovery) and the graceful
# shutdown-under-load accounting, with the prework fan-out goroutines
# exercised under -race.
serve-smoke:
	$(GO) test -race -count=1 -run 'Serve|Journal|Quote|Loadgen|HTTP|Batch|Replica|Shutdown' ./internal/serve ./cmd/vtmig-serve ./cmd/vtmig-loadgen
	$(GO) test -race -count=1 -run 'QuoteBatch|Frozen' ./internal/sim

# bench-smoke exercises the PPO hot-path benchmarks just enough to catch
# gross regressions and allocation reintroductions. The checkpoint
# encode/decode pair keeps the binary format's size and speed advantage
# over JSON visible in every smoke pass.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PPOUpdate$$|PPOSelectAction|MLPForward|MatMul|Collect|StreamCollect|SimRoundOnline|Snapshot|Resume|CheckpointJSON|CheckpointBinary|ServeQuote' -benchmem -benchtime 100x .

# bench is the full benchmark suite used to fill BENCH_pr*.json.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 2s .

# bench-compare measures a fresh short pass of the hot paths and diffs
# it against the latest snapshot (see header).
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -benchtime 1s . > bench-current.txt
	$(GO) run ./tools/benchdiff -threshold 0.15 $(BASE) bench-current.txt

# bench-multicore records the hot-path benchmarks with parallelism
# enabled (-cpu 2,4, i.e. GOMAXPROCS > 1) — an advisory recording for the
# parallel paths whose single-core numbers hide contention and
# scheduling effects. CI runs it continue-on-error; benchdiff strips the
# -N GOMAXPROCS suffix, so the recording diffs against any snapshot.
bench-multicore:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -benchtime 100x -cpu 2,4 . > bench-multicore.txt
	@cat bench-multicore.txt

# golden regenerates the fixed-seed golden files after an intentional
# numeric change: the experiment figure pipelines, the per-pricer
# simulator reports, and the scenario-matrix reports.
golden:
	$(GO) test ./internal/experiments -run Golden -update
	$(GO) test ./internal/sim -run Golden -update
	$(GO) test ./internal/scenario -run Golden -update

# golden-drift regenerates every golden suite and fails when the result
# differs from the committed files — i.e. when a numeric change landed
# without its goldens. CI runs it continue-on-error: bitwise drift is a
# signal to investigate, not automatically a bug (the golden tests
# themselves compare under tolerance).
golden-drift: golden
	git diff --exit-code -- '*_golden.txt' 'internal/experiments/testdata' 'internal/sim/testdata' 'internal/scenario/testdata'

ci: vet fmt-check build race race-determinism serve-smoke bench-smoke
