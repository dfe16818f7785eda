GO ?= go
# BENCHTIME tunes the bench-json run: the default gives stable numbers;
# CI smoke uses BENCHTIME=1x.
BENCHTIME ?= 1s
# The evaluation benchmarks recorded in BENCH_evaluation.json:
# E5 (FDR corrections), E6 (online eval throughput), plus the in-place
# hot-path benches whose allocs/op are pinned and the §IV-A model fit
# (BenchmarkTrainUnit). E9, the integrated loop,
# is `go run ./benchmark --workload detect-paced`.
EVAL_BENCH = BenchmarkFDRCorrections|BenchmarkOnlineEvalThroughput

# The in-place benchmarks whose allocs/op ceilings are pinned in PINS
# and gated by bench-allocs. BenchmarkBusPublish also matches
# BenchmarkBusPublishConsume; BenchmarkGatewayPutPath pins the /api/v1
# ingest edge through the full middleware chain, BenchmarkGatewayPutRow
# the same edge for a 50- and a 200-point row (one number: the decode
# may not grow with the row) and BenchmarkGroupByUnit the per-request
# grouping; BenchmarkDetectorBatch
# matches every detector family's warmed batch path;
# BenchmarkRegionPutInOrder is the hot tier's in-order append;
# BenchmarkWireUnitBatch the one encode and one decode a bus record
# costs on the clustered bus (a 50- and a 200-point row);
# BenchmarkEnergyPoint a producer's point (its series' shared tag map)
# and BenchmarkCodecEncode that point's cell (its series' cached key);
# BenchmarkGatewayCachedQuery a repeated /api/v1/query served as the
# window's cached bytes through the full middleware chain;
# BenchmarkHistogramObserve one latency observation, serial and
# parallel.
ALLOC_BENCH = BenchmarkEvaluateBatchInto|BenchmarkApplyInto|BenchmarkMulInto|BenchmarkBusPublish|BenchmarkQueryCacheHit|BenchmarkGatewayPutPath|BenchmarkGatewayPutRow|BenchmarkGroupByUnit|BenchmarkDetectorBatch|BenchmarkCompressedScan|BenchmarkRegionPutInOrder|BenchmarkWireUnitBatch|BenchmarkEnergyPoint|BenchmarkCodecEncode|BenchmarkGatewayCachedQuery|BenchmarkHistogramObserve

# GATE_BENCHTIME drives the bench-gate comparison runs: long enough for
# stable ns/op medians, short enough for a PR loop.
GATE_BENCHTIME ?= 300ms

.PHONY: build lint vet fmt assembly test paper bench bench-json bench-query bench-allocs bench-gate bench-compare soak backtest harness harness-record conformance fuzz-smoke serve cluster check

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# assembly guards the one-assembly rule: each tier constructor is
# called from exactly one non-test file under sentinel/ and cmd/
# (sentinel/assembly.go), so a second hand wiring of the pipeline
# cannot quietly regrow — nor a second read path: query.New, the one
# engine over every store group, is built in one place for every
# topology. The one storage-only wiring is the root
# package's experiments.go, the rig behind the claims table's Fig. 2 and
# §III-B rows, which TestPaperClaims, cmd/tsdbench and
# examples/ingestscaling run: outside internal/
# and benchmark/ (whose layer replays build one tier in isolation), a
# non-test proxy.New call anywhere else fails. It guards the
# one-token-bucket rule the same way: clock.TokenBucket is the only
# refill loop, so no non-test file outside internal/clock may declare
# a `tokens` field. And the
# one-wire-codec rule: internal/rpc's frame codec is the only encoding
# that crosses the cluster, so no non-test file outside internal/core
# (whose model catalog serialises trained models) may import
# encoding/gob.
assembly:
	@for call in 'api\.New(' 'tsdb\.NewCompactor(' 'ingest\.StartStorageWriters(' 'viz\.NewServer(' 'hbase\.NewCluster(' 'query\.New('; do \
		files=$$(grep -rl --include='*.go' --exclude='*_test.go' "$$call" sentinel cmd); \
		if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
			echo "assembly fork: $$call is called from more than one file:"; echo "$$files"; exit 1; \
		fi; \
	done
	@files=$$(grep -rl --include='*.go' --exclude='*_test.go' 'proxy\.New(' . | grep -v -e '^\./internal/' -e '^\./benchmark/' -e '^\./sentinel/assembly\.go$$' -e '^\./experiments\.go$$'); \
	if [ -n "$$files" ]; then \
		echo "storage rig fork: proxy.New is called outside sentinel/assembly.go and experiments.go:"; echo "$$files"; exit 1; \
	fi
	@files=$$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*tokens[[:space:]]+[A-Za-z*[]' . | grep -v '^\./internal/clock/'); \
	if [ -n "$$files" ]; then \
		echo "second token bucket: a tokens field outside internal/clock (use clock.TokenBucket):"; echo "$$files"; exit 1; \
	fi
	@files=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | grep -v '^\./internal/core/'); \
	if [ -n "$$files" ]; then \
		echo "second wire codec: encoding/gob imported outside internal/core (use internal/rpc's wire codec):"; echo "$$files"; exit 1; \
	fi

lint: fmt vet assembly

test:
	$(GO) test -race ./...

# paper runs every row of the claims table (experiments.go) at full size,
# prints each paper number next to ours and rewrites BENCH_paper.json
# (≈ 30 s). `go test -run TestPaperClaims .` runs the same rows at CI
# size.
paper:
	$(GO) run ./cmd/tsdbench

# Benchmark smoke: compile and run every benchmark once, no timing
# fidelity expected — catches bit-rot, not regressions.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-json runs the evaluation benchmarks (E5/E6 plus the in-place
# core/fdr hot paths) with -benchmem and records name → samples/s,
# ns/op, allocs/op in BENCH_evaluation.json — the committed perf
# trajectory. See README.md "Perf methodology".
bench-json: bench-query
	@rm -f bench-eval.out
	$(GO) test -run '^$$' -bench '$(EVAL_BENCH)' -benchtime $(BENCHTIME) -benchmem . > bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateBatch|BenchmarkApplyInto|BenchmarkTrainUnit' -benchtime $(BENCHTIME) -benchmem ./internal/core/ ./internal/fdr/ >> bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkBusPublishConsume|BenchmarkDetectorPoolFanout' -benchtime $(BENCHTIME) -benchmem ./internal/bus/ ./sentinel/ >> bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkGatewayPutPath|BenchmarkGatewayCachedQuery|BenchmarkIngestPutBaseline' -benchtime $(BENCHTIME) -benchmem ./internal/api/ >> bench-eval.out
	$(GO) run ./cmd/benchgate -json BENCH_evaluation.json < bench-eval.out
	@rm -f bench-eval.out

# bench-query records the read-tier trajectory in BENCH_query.json:
# the cold scatter-gather path (a wide window, and a narrow one that
# stays one shard), the cached hot path (whose allocs/op
# is also pinned by bench-allocs), LTTB bounding, and the compressed
# storage tier (zero-alloc block scan, a window's tail through the seek
# marks, compression ratio, rollup-served wide windows), a TSD query of
# a unit and of one series (the tag filter riding the scan), and the hot
# tier underneath both (a region scan that
# costs its range, not its region; the in-order put; the heap a cell
# costs hot — WAL and memstore — and flushed — store-file rows and their
# HDFS bytes; what reopening a flushed region allocates).
bench-query:
	@rm -f bench-query.out
	$(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchtime $(BENCHTIME) -benchmem ./internal/query/ > bench-query.out
	$(GO) test -run '^$$' -bench 'BenchmarkCompressedScan|BenchmarkCompressedScanTail|BenchmarkBlockCompress|BenchmarkRollupQuery|BenchmarkTSDQuery' -benchtime $(BENCHTIME) -benchmem ./internal/tsdb/ >> bench-query.out
	$(GO) test -run '^$$' -bench 'BenchmarkRegionScanNarrow|BenchmarkRegionPutInOrder|BenchmarkHotTierFootprint|BenchmarkMemstoreFlushReopen' -benchtime $(BENCHTIME) -benchmem ./internal/hbase/ >> bench-query.out
	$(GO) run ./cmd/benchgate -json BENCH_query.json < bench-query.out
	@rm -f bench-query.out

# bench-allocs gates the allocs/op ceilings: the in-place hot paths run
# once (-benchtime=1x -benchmem) and benchgate, given no baseline, fails
# the build if any exceeds its ceiling in PINS. Timing-noise free, so it is
# a gating CI step, unlike the bench-json smoke. -cpu 1 because the
# pins are the code's own allocations: with more procs
# linalg.parallelRows spawns row-stripe goroutines, and their count
# (7–9 allocs/op on two cores) follows GOMAXPROCS, not the code.
bench-allocs:
	@rm -f bench-allocs.out
	$(GO) test -run '^$$' -bench '$(ALLOC_BENCH)' -benchtime 1x -benchmem -cpu 1 \
		./internal/core/ ./internal/fdr/ ./internal/linalg/ ./internal/bus/ ./internal/query/ ./internal/api/ ./internal/ingest/ ./internal/mllib/ ./internal/tsdb/ ./internal/hbase/ ./internal/telemetry/ > bench-allocs.out
	$(GO) run ./cmd/benchgate -pins PINS < bench-allocs.out
	@rm -f bench-allocs.out

# bench-gate is the regression ratchet: re-run the benchmarks whose
# key metrics are pinned in PINS and compare against the
# committed BENCH_query.json / BENCH_evaluation.json baselines.
# Per-metric tolerances absorb runner noise; a genuine 2x regression
# fails the build. Refresh baselines with `make bench-json` after an
# intentional perf change.
bench-gate:
	@rm -f bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkQueryCacheHit|BenchmarkQueryColdScatterGather|BenchmarkQueryColdNarrow' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/query/ > bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkCompressedScan|BenchmarkBlockCompress' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/tsdb/ >> bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkRegionScanNarrow|BenchmarkHotTierFootprint' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/hbase/ >> bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineEvalThroughput' -benchtime $(GATE_BENCHTIME) -benchmem . >> bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkTrainUnit/sensors=200$$' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/core/ >> bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkGatewayCachedQuery' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/api/ >> bench-gate.out
	$(GO) run ./cmd/benchgate -pins PINS -baseline BENCH_query.json -baseline BENCH_evaluation.json < bench-gate.out
	@rm -f bench-gate.out

# bench-compare applies the repo's own verdict rule (BENCHMARK.json's
# bounds → ok / worse / unresolved per metric and workload) to this tree
# against BASE: BASE is exported into a temporary directory, the two
# trees alternate `go run ./benchmark --out` for PAIRS pairs (which
# side goes first alternates per pair), and `benchmark --compare`
# prints the verdict. ~3 minutes per pair.
BASE ?= HEAD
PAIRS ?= 10
bench-compare:
	@rm -f bench-base.jsonl bench-head.jsonl
	@base=$$(mktemp -d) && trap 'rm -rf "$$base"' EXIT && \
	git archive $(BASE) | tar -x -C "$$base" && \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "pair $$i/$(PAIRS): $$side"; \
			if [ $$side = base ]; then \
				(cd "$$base" && $(GO) run ./benchmark --out "$(CURDIR)/bench-base.jsonl") || exit 1; \
			else \
				$(GO) run ./benchmark --out bench-head.jsonl || exit 1; \
			fi; \
		done; \
	done && \
	$(GO) run ./benchmark --compare bench-base.jsonl bench-head.jsonl

# soak runs the storage-tier compression soak at nightly length: a
# multi-hour ingest → seal → spill → query cycle asserting
# byte-identical readback through the whole tier, under the race
# detector.
soak:
	TSDB_SOAK=1 $(GO) test -race -run TestCompressionSoak -count=1 -v ./internal/tsdb/

# backtest scores every registered detector family against the
# simulated fleet's injected-fault scenarios (stuck-at, drift, spike,
# correlated shift) and records precision / recall / detection latency
# per (detector, scenario) in BENCH_detectors.json. The spike-recall
# gate is the committed floor the CI smoke step also enforces.
backtest:
	$(GO) run ./cmd/backtest -gate spike:0.30 -out BENCH_detectors.json

# harness runs cmd/harness's three end-to-end proofs, gating, each a
# table of named checks that must all pass:
#   - chaos (seeded, under the race detector, ~15 s): a full System
#     endures a TSD crash/restart, an RPC error burst, a stalled proxy
#     edge and two storage blackouts, and must come out with zero
#     acked-sample loss, zero failed reader queries (degraded-marked
#     stale answers are legal) and every breaker cycled back to closed
#     inside the recovery budget;
#   - load (~10 s): calibrate an in-process System's capacity, drive 2x
#     that open-loop with ingest / interactive / bulk / SSE-tailer
#     traffic, and hold the overload contract — accepted-ingest p99
#     under 250 ms and at least 0.25x capacity, sheds ordered
#     bulk >= interactive >= ingest, zero acked-sample loss;
#   - cluster: four sentineld processes, the broker SIGKILLed
#     mid-ingest — every acked sample reads back, a store is promoted,
#     an anomaly reaches the SSE stream.
# The report goes to bin/harness.json; only harness-record refreshes the
# committed BENCH_harness.json (after an intentional change to what a
# scenario measures — commit the refreshed file). The record runs load
# at full length (20 s drive after 5 s of calibration).
harness:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	@rm -f bin/harness.json
	$(GO) run -race ./cmd/harness -scenario chaos -out bin/harness.json
	$(GO) run ./cmd/harness -scenario load -out bin/harness.json
	$(GO) run ./cmd/harness -scenario cluster -bin bin/sentineld -out bin/harness.json

harness-record:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	@rm -f BENCH_harness.json
	$(GO) run -race ./cmd/harness -scenario chaos -out BENCH_harness.json
	$(GO) run ./cmd/harness -scenario load -duration 20s -out BENCH_harness.json
	$(GO) run ./cmd/harness -scenario cluster -bin bin/sentineld -out BENCH_harness.json

# conformance runs the /api/v1 route-contract table: every route
# answers and every error class maps onto the documented status +
# envelope code. Cheap, deterministic, gating in CI.
conformance:
	$(GO) test ./internal/api/... -run TestV1Conformance

# fuzz-smoke runs the hand-written decoders' fuzz targets for 15 s
# each. FuzzPutDecode is differential: the one-pass put scanner against
# the encoding/json route it replaced — both reject a body, or both
# accept it with identical points. FuzzWireFrame feeds the rpc frame
# codec truncated, bit-flipped and length-lying frames: errors, never a
# panic, never a read past the frame. FuzzStoreFile and FuzzWALRecord
# hold the hot tier's two decoders — a region's open and a dead server's
# log replay, both over the one packed-entry parser — to the same: an
# error, never a panic or a neighbour's bytes, and what decodes encodes
# back to itself. FuzzBlockIter holds the sealed tier's block decoder to
# the same — a corrupt block errors, never yields more samples than its
# header counts — and any encoded block to exactly its samples, and,
# decoded from each of its seek marks, to exactly the samples from the
# mark's index on.
# FuzzParseLine holds the telnet line codec to "error, never panic", and
# any line it accepts to format back to the identical point (value bits,
# tags, the one interned tag map). FuzzReadEncode is differential like
# FuzzPutDecode: the read encoder against encoding/json on the v1 DTOs,
# over arbitrary metric and tag strings, timestamps and float bit
# patterns — both error, or both produce the same bytes. Seeded from the packages'
# testdata/fuzz; a finding lands there as a new regression seed.
# Gating in CI. FuzzBlockIter bounds minimization: left at the default
# 60 s, shrinking its first new-coverage input takes the rest of the
# 15 s (≈ 45k execs instead of ≈ 250k).
fuzz-smoke:
	$(GO) test ./internal/api -run '^$$' -fuzz FuzzPutDecode -fuzztime 15s
	$(GO) test ./internal/api -run '^$$' -fuzz FuzzReadEncode -fuzztime 15s
	$(GO) test ./internal/rpc -run '^$$' -fuzz FuzzWireFrame -fuzztime 15s
	$(GO) test ./internal/hbase -run '^$$' -fuzz FuzzStoreFile -fuzztime 15s
	$(GO) test ./internal/hbase -run '^$$' -fuzz FuzzWALRecord -fuzztime 15s
	$(GO) test ./internal/tsdb -run '^$$' -fuzz FuzzBlockIter -fuzztime 15s -fuzzminimizetime 100x
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzParseLine -fuzztime 15s

# serve runs the whole pipeline as one daemon: every role on one node
# without peers (the same assembly the cluster splits by role), the
# /api/v1 surface and the HTML pages on 127.0.0.1:8080. Ctrl-C drains
# gracefully.
serve:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	bin/sentineld -name solo -role all -http 127.0.0.1:8080

# cluster boots a local four-process cluster on fixed ports: one
# broker, two store nodes, and a combined detect+gateway node hosting
# the coordination service, with the gateway's HTTP surface on
# 127.0.0.1:8080. Ctrl-C tears every process down. Drive it with
# `go run ./examples/clusterdemo` or the SDK.
CLUSTER_PEERS = broker=127.0.0.1:7401,store-1=127.0.0.1:7402,store-2=127.0.0.1:7403,dg=127.0.0.1:7404
CLUSTER_ARGS = -peers $(CLUSTER_PEERS) -partitions 4 -units 4 -sensors 3 -stores 2
cluster:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	@trap 'kill 0' INT TERM EXIT; \
	bin/sentineld -name dg -role detect,gateway -listen 127.0.0.1:7404 -http 127.0.0.1:8080 $(CLUSTER_ARGS) & \
	bin/sentineld -name broker -role broker -listen 127.0.0.1:7401 -zk-node dg $(CLUSTER_ARGS) & \
	sleep 1; \
	bin/sentineld -name store-1 -role store -listen 127.0.0.1:7402 -zk-node dg $(CLUSTER_ARGS) & \
	bin/sentineld -name store-2 -role store -listen 127.0.0.1:7403 -zk-node dg $(CLUSTER_ARGS) & \
	wait

check: lint build test bench bench-allocs bench-gate backtest harness conformance fuzz-smoke
