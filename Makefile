# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lint race bench bench-e2e bench-shard bench-gateway bench-storage chaos experiments fuzz obs-demo clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# go vet plus gtmlint, the repo's own concurrency-invariant checkers
# (see docs/STATIC_ANALYSIS.md). The analyzer binary is cached in bin/
# keyed on a content hash of its sources: bin/gtmlint-<hash> is the
# real binary, bin/gtmlint a symlink to the current one. An mtime-only
# dependency rebuilds on checkout/branch switches even when nothing
# changed; the hash key survives them, which is what makes the CI cache
# hit. Stale hashes are pruned on rebuild.
BIN := bin
LINT_SRCS := $(wildcard cmd/gtmlint/*.go internal/lint/*.go) go.mod
LINT_HASH := $(shell cat $(LINT_SRCS) | sha256sum | cut -c1-16)
GTMLINT := $(BIN)/gtmlint-$(LINT_HASH)

$(GTMLINT):
	@mkdir -p $(BIN)
	@rm -f $(BIN)/gtmlint $(BIN)/gtmlint-*
	$(GO) build -o $(GTMLINT) ./cmd/gtmlint

lint: $(GTMLINT)
	@ln -sf $(notdir $(GTMLINT)) $(BIN)/gtmlint
	$(GO) vet ./...
	$(BIN)/gtmlint ./...

race:
	$(GO) test ./... -race

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md), one workload:
#   make bench-e2e W=embedded_burst [SEED=1] [TRACE=1]   one run; TRACE=1 adds the per-layer budget
#   make bench-e2e A=old.json B=new.json                 judge two `bench/run.sh -runs N -out F` result files
SEED ?= 1
TRACE ?= 0
bench-e2e:
ifdef A
	bash bench/run.sh -compare $(A) $(B)
else
	@test -n "$(W)" || { echo "usage: make bench-e2e W=<workload> | A=<results.json> B=<results.json>"; exit 2; }
	bash bench/run.sh --workload $(W) --seed $(SEED) --trace $(TRACE)
endif

# Single-node vs 4-shard gtmd throughput under gtmload's closed-loop
# booking bench (see docs/SHARDING.md). Both servers run identical flags:
# one SST lane per shard and 2ms emulated storage-sync latency, modelling
# the paper's mobile-class devices — the regime where sharding multiplies
# the commit-application lanes. Override via BENCH_SHARD_FLAGS / WORKERS /
# DURATION.
BENCH_SHARD_FLAGS ?= -sst-workers 1 -wal-sync-delay 2ms -seats 1000000000
BENCH_SHARD_WORKERS ?= 32
BENCH_SHARD_DURATION ?= 6s
bench-shard:
	@$(GO) build -o /tmp/gtmd-bench ./cmd/gtmd
	@$(GO) build -o /tmp/gtmload-bench ./cmd/gtmload
	@rm -rf /tmp/bench-shard-1 /tmp/bench-shard-4
	@/tmp/gtmd-bench -addr 127.0.0.1:7761 -data /tmp/bench-shard-1 $(BENCH_SHARD_FLAGS) & \
	p1=$$!; \
	/tmp/gtmd-bench -addr 127.0.0.1:7764 -shards 4 -data /tmp/bench-shard-4 $(BENCH_SHARD_FLAGS) & \
	p4=$$!; \
	trap "kill $$p1 $$p4 2>/dev/null" EXIT; \
	sleep 1; \
	echo "--- single node ---"; \
	/tmp/gtmload-bench -addr 127.0.0.1:7761 -bench -workers $(BENCH_SHARD_WORKERS) -duration $(BENCH_SHARD_DURATION) | tee /tmp/bench-shard-1.out; \
	echo "--- 4 shards ---"; \
	/tmp/gtmload-bench -addr 127.0.0.1:7764 -bench -workers $(BENCH_SHARD_WORKERS) -duration $(BENCH_SHARD_DURATION) | tee /tmp/bench-shard-4.out; \
	s=$$(awk '/^throughput/{print $$2}' /tmp/bench-shard-1.out); \
	c=$$(awk '/^throughput/{print $$2}' /tmp/bench-shard-4.out); \
	awk -v s=$$s -v c=$$c 'BEGIN{printf "--- 4-shard speedup: %.2fx (%.0f vs %.0f tx/s)\n", c/s, c, s}'

# Gateway swarm smoke: a small fleet of mostly-parked sessions multiplexed
# over a handful of connections against gtmd -gateway. Asserts that parked
# sessions stay under the per-client byte budget (the gauge the capacity
# plan in docs/GATEWAY.md is built on) and that the JSON report has the
# BENCH_gateway.json shape. The full 100k-client run behind the committed
# BENCH_gateway.json uses the same command with CLIENTS=100000 DURATION=15s.
BENCH_GW_CLIENTS ?= 5000
BENCH_GW_CONNS ?= 4
BENCH_GW_DURATION ?= 4s
BENCH_GW_BUDGET ?= 512
bench-gateway:
	@$(GO) build -o /tmp/gtmd-bench ./cmd/gtmd
	@$(GO) build -o /tmp/gtmload-bench ./cmd/gtmload
	@/tmp/gtmd-bench -addr 127.0.0.1:7771 -http 127.0.0.1:7772 -gateway -seats 100000000 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	sleep 1; \
	/tmp/gtmload-bench -addr 127.0.0.1:7771 -swarm \
		-clients $(BENCH_GW_CLIENTS) -conns $(BENCH_GW_CONNS) \
		-park-min 500ms -duration $(BENCH_GW_DURATION) \
		-budget-bytes $(BENCH_GW_BUDGET) -json /tmp/bench-gateway.json; \
	grep -q '"bench": "gateway-swarm"' /tmp/bench-gateway.json && \
	grep -q '"bytes_per_parked_session"' /tmp/bench-gateway.json && \
	echo "--- report shape ok: /tmp/bench-gateway.json"

# Storage-engine bench (docs/STORAGE.md): mem vs disk at page-cache
# budgets of 100%/50%/10% of the measured working set, each with and
# without a WAL sync delay; tx/s and p50/p99 commit latency per leg.
# Regenerates BENCH_storage.json, the committed snapshot.
BENCH_STORAGE_N ?= 2000
bench-storage:
	$(GO) run ./cmd/experiments -run storage -n $(BENCH_STORAGE_N) -json BENCH_storage.json

# Fault-injection soak: booking workload through a flaky proxy across two
# server crash-restarts, seat-conservation oracle, race detector on
# (see docs/RESILIENCE.md).
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos ./internal/faultnet

# Regenerates every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

fuzz:
	$(GO) test -fuzz=FuzzReadWAL -fuzztime=30s ./internal/ldbs
	$(GO) test -fuzz=FuzzParseSQL -fuzztime=30s ./internal/ldbs
	$(GO) test -fuzz=FuzzDiskCrashRecovery -fuzztime=30s ./internal/ldbs
	$(GO) test -fuzz=FuzzReadMsg -fuzztime=30s ./internal/wire

# Start gtmd with diagnostics, drive a short workload, scrape /metrics and
# the event trace, then shut down (see docs/OBSERVABILITY.md).
obs-demo:
	@$(GO) build -o /tmp/gtmd-demo ./cmd/gtmd
	@/tmp/gtmd-demo -addr 127.0.0.1:7654 -http 127.0.0.1:7655 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	sleep 1; \
	$(GO) run ./cmd/gtmload -addr 127.0.0.1:7654 -n 50 -alpha 0.8 -beta 0.1; \
	echo; echo "--- /metrics (gtm_* counters) ---"; \
	curl -s 127.0.0.1:7655/metrics | grep -E '^gtm_[a-z_]+(\{[^}]*\})? ' ; \
	echo; echo "--- /debug/trace (last 5 events) ---"; \
	curl -s '127.0.0.1:7655/debug/trace?n=5'; echo; \
	echo; echo "--- /healthz ---"; \
	curl -s 127.0.0.1:7655/healthz; echo

clean:
	$(GO) clean ./...
