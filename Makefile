# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lint race bench bench-e2e chaos experiments fuzz obs-demo clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# gofmt, go vet and gtmlint (the repo's own concurrency-invariant checkers,
# see docs/STATIC_ANALYSIS.md). The analyzer fixtures under
# internal/lint/testdata are exempt from gofmt: their `// want` comments
# are anchored to source lines. The analyzer binary is cached in bin/
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
	@unformatted=$$(gofmt -l bench cmd examples internal *.go | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
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
	$(GO) test -fuzz=FuzzReadReplMsg -fuzztime=30s ./internal/ldbs
	$(GO) test -fuzz=FuzzTxWriteSet -fuzztime=30s ./internal/ldbs
	$(GO) test -fuzz=FuzzPageCodec -fuzztime=30s ./internal/ldbs/store/disk
	$(GO) test -fuzz=FuzzAwakeVerdict -fuzztime=30s -fuzzminimizetime=1s ./internal/core

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
