GO ?= go

.PHONY: all build vet lint test race bench bench-smoke profile experiments determinism-smoke

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ptmlint enforces the determinism and address-hygiene contracts of
# DESIGN.md §6 (detrange, noclock, seedflow, archconst, statshape,
# deprflow, obscover, errwrap, goscope). Blocking: any finding fails the
# build. The binary is built first so the timeout guards the analysis
# itself: whole-module type checking plus the call graph must stay under
# 60 seconds, keeping the pre-commit loop usable.
LINT_BIN ?= $(or $(TMPDIR),/tmp)/ptmlint
lint:
	$(GO) build -o $(LINT_BIN) ./cmd/ptmlint
	timeout 60 $(LINT_BIN)

test:
	$(GO) test ./...

# The engine's determinism contract, the simulator's per-scenario
# isolation, and the multi-tenant/migration machine tests (whose scenarios
# run under the parallel engine) are the properties the race detector
# guards; the heavy simulation packages elsewhere are race-free by
# construction (no goroutines) and would only slow this down.
race:
	$(GO) test -race ./internal/engine ./internal/sim ./internal/vm ./internal/migrate ./internal/faults ./internal/balloon

# The Pipeline* benchmarks track the batched hot path against the legacy
# one-access adapter at three layers (workload step, walker fast path, full
# machine loop). BENCH_pipeline.json is committed so future changes have a
# perf trajectory to diff against.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='Pipeline' -benchtime=2s -run=^$$ -json \
		./internal/workload ./internal/nested ./internal/vm . \
		> BENCH_pipeline.json

# Compile-and-run rot check for the bench harness: every per-layer bench
# under internal/ plus the root Pipeline bench, one iteration each, no
# timing claims.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./internal/...
	$(GO) test -bench='Pipeline' -benchtime=1x -run=^$$ .

# CPU profile of the batched machine loop, standard library only: the
# profile and the test binary it symbolizes against land in PROFILE_DIR,
# and the hottest functions print by flat time.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)
profile:
	$(GO) test -bench='PipelineMachineLoopBatched$$' -benchtime=3s -run=^$$ \
		-cpuprofile $(PROFILE_DIR)/ptm-machineloop.pprof \
		-o $(PROFILE_DIR)/ptm-vm.test ./internal/vm
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/ptm-vm.test $(PROFILE_DIR)/ptm-machineloop.pprof

experiments:
	$(GO) run ./cmd/experiments -quick

# Determinism check (DESIGN.md §8, §11, §12): each quick sweep below, run
# serially and with 4 workers, must emit byte-identical RunRecord JSONL
# once elapsed_ms — the one sanctioned nondeterministic field — is masked,
# and byte-identical stdout once the wall-clock timing line is masked.
# table1 covers the single-VM path; multitenant the cross-VM round-robin
# and churn events; migration the pre-copy rounds and guest hand-off;
# chaos a nonzero fault plan with injected host OOMs, retries and
# mid-migration faults; overcommit watermark ballooning, victim selection
# and reservation-breaking reclaim.
SMOKE_DIR ?= $(or $(TMPDIR),/tmp)
determinism-smoke:
	$(GO) build -o $(SMOKE_DIR)/ptm-experiments ./cmd/experiments
	@set -e; for exp in table1 multitenant migration chaos overcommit; do \
		for p in 1 4; do \
			$(SMOKE_DIR)/ptm-experiments -quick -exp $$exp -parallel $$p \
				-telemetry $(SMOKE_DIR)/$$exp-$$p.jsonl > $(SMOKE_DIR)/$$exp-$$p.out; \
			sed -E 's/"elapsed_ms":[0-9]+/"elapsed_ms":0/' $(SMOKE_DIR)/$$exp-$$p.jsonl > $(SMOKE_DIR)/$$exp-$$p.masked.jsonl; \
			sed -E 's/^    \([0-9.]+s\)$$/    (time)/' $(SMOKE_DIR)/$$exp-$$p.out > $(SMOKE_DIR)/$$exp-$$p.masked.out; \
		done; \
		diff $(SMOKE_DIR)/$$exp-1.masked.jsonl $(SMOKE_DIR)/$$exp-4.masked.jsonl; \
		diff $(SMOKE_DIR)/$$exp-1.masked.out $(SMOKE_DIR)/$$exp-4.masked.out; \
		echo "determinism-smoke: $$exp identical for 1 vs 4 workers"; \
	done
