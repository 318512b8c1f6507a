# Reproduction of Chilimbi, PLDI 2001 — build/test/benchmark entry points.

GO ?= go

.PHONY: all build test bench bench-smoke bench-pipeline bench-ingest repro csv lint lint-baseline race sanitize serve-smoke cluster-smoke fleet-smoke locbench-check locdiff-smoke obs-smoke fuzz fuzz-smoke cover clean

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

# End-to-end smoke of the online locality service: start locserve,
# stream a trace into it with tracegen, and diff the served snapshot
# against the batch pipeline's output.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end smoke of the sharded deployment: locgate routing six
# sessions across three locserve shards, one shard killed mid-run and
# retired; the drained sessions rehydrate on their new owners and every
# final snapshot must be locdiff-clean against a single-node batch.
cluster-smoke:
	./scripts/cluster-smoke.sh

# End-to-end smoke of the fleet analysis views: six sessions from two
# workload families over three shards behind locgate; the gateway's
# merged /v1/fleet views must be byte-identical to a single locserve
# fed the same uploads, and clustering must recover the two families.
fleet-smoke:
	./scripts/fleet-smoke.sh

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

# Observability smoke: locstats -stage-timing over both entry points;
# fails if any registered pipeline stage reports zero samples.
obs-smoke:
	./scripts/obs-smoke.sh

# Measure obs-on vs obs-off ingest/snapshot throughput and regenerate
# BENCH_pipeline.json; fails if overhead exceeds the 2% budget.
bench-pipeline:
	./scripts/bench-pipeline.sh

# Measure in-process and HTTP ingest throughput, regenerate
# BENCH_ingest.json, and gate allocs/op against the committed file.
bench-ingest:
	./scripts/bench-ingest.sh

# Short fuzz sessions over the parsers and the grammar invariant.
fuzz:
	$(GO) test -fuzz=FuzzExpandIdentity -fuzztime=30s ./internal/sequitur/
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=30s ./internal/sequitur/
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzReadState -fuzztime=30s ./internal/online/
	$(GO) test -fuzz=FuzzReadEngine -fuzztime=30s ./internal/online/
	$(GO) test -fuzz=FuzzReadStreamer -fuzztime=30s ./internal/online/
	$(GO) test -fuzz=FuzzReadStatsAccum -fuzztime=30s ./internal/online/

# The CI-sized fuzz pass: 10 seconds per target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzExpandIdentity -fuzztime=10s ./internal/sequitur/
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/sequitur/
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzReadState -fuzztime=10s ./internal/online/
	$(GO) test -fuzz=FuzzReadEngine -fuzztime=10s ./internal/online/
	$(GO) test -fuzz=FuzzReadStreamer -fuzztime=10s ./internal/online/
	$(GO) test -fuzz=FuzzReadStatsAccum -fuzztime=10s ./internal/online/

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -rf out/ internal/sequitur/testdata internal/trace/testdata
