GO ?= go

.PHONY: verify build test race vet fmt lint isolint bench serve-smoke fuzz fuzz-mixed fuzz-keyrange fuzz-dml fuzz-determinism fuzz-diff

verify: lint build race ## vet + gofmt + isolint + build + race-enabled tests (CI runs more; see ci.yml)

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the repo's own isolint suite
# (cmd/isolint) — determinism (map-range order, unseeded randomness) and
# latch discipline (declared hierarchy, lock pairing, install-then-refresh)
# across every package.
lint: vet fmt isolint

# gofmt gate: prints and fails on any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

isolint:
	$(GO) run ./cmd/isolint ./...

# -count=1: a cached "ok" is not a run.
test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# End-to-end benchmark, quick mode: one repetition of every BENCHMARK.json
# workload at a tenth of the counts, oracle on; exits 1 on a violation.
bench:
	$(GO) run ./benchmark -quick

# Traffic-tier and observability-endpoint smoke: start `serve -family
# keyrange` with -http, drive it with a fixed-seed mixed-level load (hot
# keys induce lock conflicts), and assert a healthy run: zero protocol
# errors, nonzero commits, the server and engine families live on
# /metrics (the isolevel_op_latency histogram summary and the
# isolevel_lock_grants_total counter among them), and /debug/pprof/ and
# /debug/vars answering. Background the server, poll until the HTTP
# endpoint answers, always kill.
SERVE_SMOKE_ADDR ?= 127.0.0.1:7431
SERVE_SMOKE_HTTP ?= 127.0.0.1:8731
serve-smoke:
	$(GO) build -o /tmp/isolevel-serve ./cmd/isolevel
	sh -c '/tmp/isolevel-serve serve -family keyrange -addr $(SERVE_SMOKE_ADDR) -preload 64 -http $(SERVE_SMOKE_HTTP) > /tmp/isolevel-serve.log 2>&1 & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; ok=; \
	for i in $$(seq 1 50); do \
	  curl -fsS -o /dev/null http://$(SERVE_SMOKE_HTTP)/metrics 2>/dev/null && ok=1 && break; \
	  sleep 0.2; \
	done; \
	test -n "$$ok" || { echo "serve-smoke: server never answered"; cat /tmp/isolevel-serve.log; exit 1; }; \
	/tmp/isolevel-serve load -addr $(SERVE_SMOKE_ADDR) -clients 4 -txns 200 -keys 64 -hot-keys 4 -hot-bias 0.8 -scan-frac 0.2 -levels "SER,RR" -seed 1 > /tmp/isolevel-load.out 2>&1 || { cat /tmp/isolevel-load.out; exit 1; }; \
	cat /tmp/isolevel-load.out; \
	grep -q "proto-errors=0 " /tmp/isolevel-load.out && \
	grep -q "commits=[1-9]" /tmp/isolevel-load.out && \
	curl -fsS http://$(SERVE_SMOKE_HTTP)/metrics > /tmp/isolevel-serve-metrics.out && \
	grep -q "^isolevel_server_commits_total [1-9]" /tmp/isolevel-serve-metrics.out && \
	grep -q "^isolevel_server_stmt_latency_count [1-9]" /tmp/isolevel-serve-metrics.out && \
	grep -q "^isolevel_server_sessions_accepted_total 4" /tmp/isolevel-serve-metrics.out && \
	grep -q "^isolevel_op_latency" /tmp/isolevel-serve-metrics.out && \
	grep -q "^isolevel_lock_grants_total" /tmp/isolevel-serve-metrics.out && \
	curl -fsS -o /dev/null http://$(SERVE_SMOKE_HTTP)/debug/pprof/ && \
	curl -fsS -o /dev/null http://$(SERVE_SMOKE_HTTP)/debug/vars && \
	echo "serve-smoke: ok"'

# Differential isolation fuzzing: 1000 seeded schedules against every
# engine family at every level, checked against the Table 4 oracle.
fuzz:
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 1000

# Mixed isolation levels: every transaction of a schedule at its own
# sampled level (all six locking degrees in one lock manager, SI + RC on
# the mv engine), judged by the per-transaction oracle.
fuzz-mixed:
	$(GO) run ./cmd/isolevel fuzz -mixed -seed 1 -n 500

# The keyrange family alone: the locking scheduler under key-range
# (next-key) phantom prevention, uniform and mixed. There is one keyrange
# protocol — the exact, image-refined one — so this and fuzz-dml are the
# only keyrange modes.
fuzz-keyrange:
	$(GO) run ./cmd/isolevel fuzz -engines keyrange -seed 1 -n 1000
	$(GO) run ./cmd/isolevel fuzz -engines keyrange -mixed -seed 1 -n 500

# DML grammar: inserts, deletes, and range reads join the classic op
# mix, so every family replays schedules that create and destroy rows
# mid-history and range reads certify against the resulting phantoms.
# Keyrange campaigns exercise the gap-lock path continuously (the gaps
# column goes nonzero). Zero oracle violations AND zero predicate vs
# keyrange divergences, byte-for-byte identical across reruns and under
# the race detector with parallel campaign workers.
fuzz-dml:
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 500 -mix r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2 > /tmp/isolevel-fuzz-da.out
	cat /tmp/isolevel-fuzz-da.out
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 500 -mix r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2 > /tmp/isolevel-fuzz-db.out
	diff /tmp/isolevel-fuzz-da.out /tmp/isolevel-fuzz-db.out
	$(GO) run -race ./cmd/isolevel fuzz -seed 1 -n 500 -mix r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2 -workers 4 > /tmp/isolevel-fuzz-dc.out
	diff /tmp/isolevel-fuzz-da.out /tmp/isolevel-fuzz-dc.out

# The same campaign run twice must be byte-for-byte identical — uniform
# and mixed alike.
fuzz-determinism:
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 1000 > /tmp/isolevel-fuzz-a.out
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 1000 > /tmp/isolevel-fuzz-b.out
	diff /tmp/isolevel-fuzz-a.out /tmp/isolevel-fuzz-b.out
	$(GO) run ./cmd/isolevel fuzz -mixed -seed 1 -n 500 > /tmp/isolevel-fuzz-ma.out
	$(GO) run ./cmd/isolevel fuzz -mixed -seed 1 -n 500 > /tmp/isolevel-fuzz-mb.out
	diff /tmp/isolevel-fuzz-ma.out /tmp/isolevel-fuzz-mb.out

# Byte-for-byte check against another revision: `make fuzz-diff BASE=<rev>`
# builds cmd/isolevel at BASE in a throwaway git worktree, runs five fuzz
# campaigns (uniform, mixed, keyrange, DML, and mixed SI/RC cursors with
# inserts and deletes on the mv engine) and the paper artifacts (paper,
# tables, remarks, figure2) with it and with the working tree, and cmps
# each pair. A change that moves no grant decision and no phenomenon
# verdict leaves all nine identical; a difference prints its first lines
# and fails.
BASE ?=
FUZZ_DIFF_DIR ?= /tmp/isolevel-fuzz-diff
FUZZ_DIFF_CAMPAIGNS = "-seed 1 -n 1000" "-mixed -seed 1 -n 500" "-engines keyrange -seed 1 -n 1000" "-seed 1 -n 500 -mix r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2" "-engines mv -mixed -seed 1 -n 500 -mix r:4,w:4,p:1,rc:2,wc:2,i:2,d:2,s:2"
fuzz-diff:
	@test -n "$(BASE)" || { echo "usage: make fuzz-diff BASE=<rev>"; exit 2; }
	rm -rf $(FUZZ_DIFF_DIR)
	mkdir -p $(FUZZ_DIFF_DIR)
	$(GO) build -o $(FUZZ_DIFF_DIR)/isolevel-head ./cmd/isolevel
	@sh -c 'dir=$(FUZZ_DIFF_DIR); trap "git worktree remove --force $$dir/base; git worktree prune" EXIT; \
	git worktree add --quiet --detach $$dir/base $(BASE) || exit 1; \
	(cd $$dir/base && $(GO) build -o $$dir/isolevel-base ./cmd/isolevel) || exit 1; \
	status=0; i=0; \
	same() { \
	  i=$$((i+1)); \
	  $$dir/isolevel-base "$$@" > $$dir/base-$$i.out 2>&1; \
	  $$dir/isolevel-head "$$@" > $$dir/head-$$i.out 2>&1; \
	  if cmp -s $$dir/base-$$i.out $$dir/head-$$i.out; then \
	    echo "fuzz-diff: identical: $$*"; \
	  else \
	    echo "fuzz-diff: DIFFERS: $$*"; diff $$dir/base-$$i.out $$dir/head-$$i.out | head -20; status=1; \
	  fi; \
	}; \
	for args in $(FUZZ_DIFF_CAMPAIGNS); do same fuzz $$args; done; \
	for cmd in paper tables remarks figure2; do same $$cmd; done; \
	exit $$status'
