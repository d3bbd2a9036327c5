GO ?= go

.PHONY: build test race vet ci bench bench-compare bench-p1 bench-ps bench-g1 fuzz-smoke chaos-soak metrics-smoke difftest difftest-soak multinode-smoke failover-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet plus scrubvet, the project's own seven analyzers (hot-path
# allocation freedom, pooled-memory retention, atomic/guarded field
# discipline, metric naming, wire-codec symmetry/exhaustiveness,
# lock-order and lock-leak checking, goroutine lifecycle). The passes
# run concurrently over one shared type-checked load; `-seq` restores
# sequential execution, `-json` emits machine-readable findings.
# See DESIGN.md §12 for the annotation grammar.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/scrubvet ./...

ci:
	./scripts/ci.sh

# Full evaluation sweep: prints every experiment's table. Performance
# claims are measured with perfbench (BENCHMARK.json), not these tables.
bench:
	$(GO) run ./cmd/benchrunner

# Alternating base/working-tree perfbench pairs on one workload, each
# end-to-end metric judged against its BENCHMARK.json bound:
#   make bench-compare BASE=<rev> WORKLOAD=<name> PAIRS=<n>
# A pair takes about a minute, so ci.sh does not run it.
PAIRS ?= 10
bench-compare:
	$(GO) run ./scripts/benchcompare -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Host-overhead sweep only: the hot-path perf gate tracked across PRs.
bench-p1:
	$(GO) run ./cmd/benchrunner -only P1

# Query-scale sweep only: shared-index dispatch at up to 256 concurrent
# queries, overlap vs distinct predicate mixes.
bench-ps:
	$(GO) run ./cmd/benchrunner -only PS

# Governor comparison: the same expensive query unbounded vs budgeted.
bench-g1:
	$(GO) run ./cmd/benchrunner -only G1

# Boot scrubcentral + scrubd with -metrics, scrape both /metrics
# endpoints, and fail on missing or duplicate series (plus a pprof probe).
metrics-smoke:
	$(GO) run ./scripts/metricssmoke

# Short coverage-guided fuzz pass over the two surfaces that parse
# untrusted input: the transport frame decoder (arbitrary network bytes)
# and the query-language parser (arbitrary operator-typed text).
fuzz-smoke:
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzDecode -fuzztime=5s
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzRecvFrame -fuzztime=5s
	$(GO) test ./internal/ql -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/replay -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=5s

# Fixed-seed chaos soak (quick mode) under the race detector.
chaos-soak:
	$(GO) run -race ./cmd/benchrunner -only C1 -quick

# Differential-oracle sweep: 200 seeded cluster simulations (two full
# family × shards × mode coverage cycles) cross-checking Engine,
# ShardedEngine at 1–8 shards, the coordinator + 2/4-shard multiprocess
# topology over the pipe transport, and the exact oracle, under the
# race detector. Every failure prints its exact replay command
# (DESIGN.md §13, §16).
difftest:
	$(GO) test -race ./internal/difftest -run 'TestDifferentialSweep|TestRegressionSeeds' -difftest.seeds=200

# Long soak: ~21 coverage cycles of the same harness.
difftest-soak:
	$(GO) test -race ./internal/difftest -run TestDifferentialSweep -difftest.seeds=2000 -timeout 30m

# Distributed deployment smoke: coordinator + 2 shard processes (one
# static, one hello-joined) + 3 host agents routing by shard map, full
# wire protocol on loopback, under the race detector (DESIGN.md §16).
multinode-smoke:
	$(GO) test -race -run TestMultinodeSmoke ./internal/server

# Coordinator HA smoke: replicating leader + warm standby + 2 shard
# processes + 2 host agents on loopback, kill -9 the leader mid-query,
# require the standby to promote, adopt the query and keep closing
# windows. All children built with -race (DESIGN.md §16).
failover-smoke:
	$(GO) run ./scripts/failoversmoke
