# Reproduction of Chilimbi, PLDI 2001 — build/test/benchmark entry points.

GO ?= go

.PHONY: all build test bench bench-smoke bench-pipeline repro csv lint lint-baseline race sanitize cluster-smoke locbench-check locdiff-smoke fuzz fuzz-smoke cover clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One benchmark per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# CI-sized benchmark pass: one iteration of every bench at a reduced
# scale, so the harness itself (including the parallel worker sweeps)
# stays runnable.
bench-smoke:
	BENCH_SCALE=20000 $(GO) test -bench=. -benchtime=1x -run '^$$' .

# Regenerate the paper's evaluation (tables + figures + extensions).
repro:
	$(GO) run ./cmd/repro
	$(GO) run ./cmd/repro -exp ext

# Plottable per-figure CSV data.
csv:
	$(GO) run ./cmd/repro -csv out/

# The repository's own static-analysis registry (internal/lint),
# ratcheted against the committed waiver file: new findings fail, and
# per-analyzer counts may only decrease (regenerate with lint-baseline
# to lock an improvement in). go vet runs in the same gate.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/repolint -baseline lint_baseline.json ./...

# Regenerate lint_baseline.json from the current findings. Only run
# this to lock in a fix (count goes down) — review any count that goes
# up as new debt.
lint-baseline:
	$(GO) run ./cmd/repolint -baseline lint_baseline.json -update-baseline ./...

# Full test suite under the race detector.
race:
	$(GO) test -race ./...

# Sequitur grammar construction with the per-Append invariant sweep.
sanitize:
	$(GO) test -tags repro_sanitize ./internal/sequitur/

# End-to-end smoke of the sharded deployment: locgate routing six
# sessions across three locserve shards, one shard killed mid-run and
# retired; the drained sessions rehydrate on their new owners and every
# final snapshot must be locdiff-clean against a single-node batch. The
# gateway's health prober must stamp every remaining shard healthy, one
# upload runs paced, and the merged locserve.rules gauge must read above
# zero.
cluster-smoke:
	./scripts/cluster-smoke.sh

# cmd/locbench is its own module, so the root build and test skip it,
# yet it drives the serve and cluster APIs: build, vet and test it
# against this checkout.
locbench-check:
	cd cmd/locbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test -short ./...

# End-to-end smoke of the regression gate: locdiff over identical runs
# must pass -strict with zero drift (and hit the store memo on rerun);
# a perturbed workload seed must trip the gates with a non-zero exit.
locdiff-smoke:
	./scripts/locdiff-smoke.sh

# Measure obs-on vs obs-off ingest/snapshot throughput and regenerate
# BENCH_pipeline.json; fails if overhead exceeds the 2% budget.
bench-pipeline:
	./scripts/bench-pipeline.sh

# Every fuzz target, as package:Target. fuzz runs each for 30 seconds;
# fuzz-smoke, the CI-sized pass, for 10.
FUZZ_TARGETS = \
	sequitur:FuzzExpandIdentity \
	sequitur:FuzzBinaryCodec \
	trace:FuzzReader \
	online:FuzzReadState \
	online:FuzzReadEngine \
	online:FuzzReadStreamer \
	online:FuzzReadStatsAccum \
	hotstream:FuzzDetect \
	locality:FuzzPackingEfficiency \
	fleet:FuzzSeqSimilarity \
	serve:FuzzMergeFingerprints \
	store:FuzzStoreManifest

# run-fuzz runs every target in FUZZ_TARGETS for $(1), stopping at the
# first failure. -run keeps go test from running the package's other
# tests before each target; the test and race steps run those.
# Minimizing a new corpus entry of a few hundred bytes takes about
# len²/2 runs, and no worker fuzzes meanwhile; the default 60 s per
# entry outlasts the whole budget, so minimization stops after
# FUZZ_MINIMIZE runs and the entry is kept as minimized so far.
FUZZ_MINIMIZE = 100x
define run-fuzz
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test -run=^$${t#*:}\$$ -fuzz=$${t#*:} -fuzztime=$(1) -fuzzminimizetime=$(FUZZ_MINIMIZE) ./internal/$${t%%:*}/"; \
		$(GO) test -run='^'$${t#*:}'$$' -fuzz=$${t#*:} -fuzztime=$(1) -fuzzminimizetime=$(FUZZ_MINIMIZE) ./internal/$${t%%:*}/; \
	done
endef

fuzz:
	$(call run-fuzz,30s)

fuzz-smoke:
	$(call run-fuzz,10s)

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -rf out/ internal/sequitur/testdata internal/trace/testdata
