GO ?= go

.PHONY: verify build test race vet fmt lint isolint bench bench-all bench-keyrange bench-mv bench-locking bench-compare fuzz fuzz-mixed fuzz-keyrange fuzz-dml fuzz-determinism serve-smoke

verify: lint build race ## what CI runs: vet + isolint + build + race-enabled tests

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

# Full bench suite. The shard-sweep lines are sliced into per-subsystem
# perf-trajectory artifacts by benchjson -match, out of the one shared
# run so BENCH_mv.json and BENCH_locking.json stay consistent with each
# other (same build, same host, same run).
bench:
	$(GO) test -bench=. -benchmem . > /tmp/bench-all.out
	cat /tmp/bench-all.out
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepDisjointBatch|ShardSweepTransfer' < /tmp/bench-all.out > BENCH_mv.json
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepLockingDisjoint|LockingLockstep' < /tmp/bench-all.out > BENCH_locking.json

# Key-range vs predicate phantom-prevention comparison, emitted as JSON so
# the perf trajectory has a machine-readable data point per PR: writers
# under an active scan (the gate contention story), scan install cost, and
# the lockstep phantom storm end to end.
# Two steps, not a pipeline: a failed bench assertion must fail the
# target (a pipe's exit status would be benchjson's, masking it).
bench-keyrange:
	$(GO) test -run '^$$' -bench 'Keyrange' -benchmem . > /tmp/bench-keyrange.out
	cat /tmp/bench-keyrange.out
	$(GO) run ./cmd/isolevel benchjson < /tmp/bench-keyrange.out > BENCH_keyrange.json

# The two bench slices alone, without the full suite: one shorter shared
# run, then the same -match split as `make bench`.
bench-mv bench-locking:
	$(GO) test -run '^$$' -bench 'ShardSweep|LockingLockstep' -benchmem . > /tmp/bench-sweeps.out
	cat /tmp/bench-sweeps.out
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepDisjointBatch|ShardSweepTransfer' < /tmp/bench-sweeps.out > BENCH_mv.json
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepLockingDisjoint|LockingLockstep' < /tmp/bench-sweeps.out > BENCH_locking.json

# All three perf-trajectory artifacts out of ONE shared run (same build,
# same host, same run): mv, locking, keyrange. This is what
# CI runs and uploads; regenerate + commit before a perf PR lands.
# Two steps, not a pipeline: a failed bench assertion must fail the
# target (a pipe's exit status would be benchjson's, masking it).
bench-all:
	$(GO) test -run '^$$' -bench 'ShardSweep|LockingLockstep|Keyrange' -benchmem . > /tmp/bench-all4.out
	cat /tmp/bench-all4.out
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepDisjointBatch|ShardSweepTransfer' < /tmp/bench-all4.out > BENCH_mv.json
	$(GO) run ./cmd/isolevel benchjson -match 'ShardSweepLockingDisjoint|LockingLockstep' < /tmp/bench-all4.out > BENCH_locking.json
	$(GO) run ./cmd/isolevel benchjson -match 'Keyrange' < /tmp/bench-all4.out > BENCH_keyrange.json

# Alloc-regression guard: rerun the keyrange benches and compare
# allocs/op against the committed BENCH_keyrange.json baseline. CI runs
# this so an accidental return to per-key staging fails the build.
MAX_REGRESS ?= 25
bench-compare:
	$(GO) test -run '^$$' -bench 'Keyrange' -benchmem . > /tmp/bench-compare.out
	$(GO) run ./cmd/isolevel benchjson < /tmp/bench-compare.out > /tmp/BENCH_keyrange.new.json
	$(GO) run ./cmd/isolevel benchjson -compare BENCH_keyrange.json -metric allocs/op -max-regress $(MAX_REGRESS) /tmp/BENCH_keyrange.new.json

# Observability endpoint smoke: a bench run with -http must serve live
# /metrics (Prometheus text with the isolevel_* families), /debug/pprof/
# and /debug/vars while it blocks after the report. Background the
# bench, poll until the socket answers, probe all three, always kill.
HTTP_SMOKE_ADDR ?= 127.0.0.1:8723
http-smoke:
	$(GO) build -o /tmp/isolevel-http ./cmd/isolevel
	sh -c '/tmp/isolevel-http bench -scenario hotspot-lockstep -level "READ COMMITTED" -workers 4 -rounds 10 -obs -http $(HTTP_SMOKE_ADDR) > /tmp/isolevel-http.log 2>&1 & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; ok=; \
	for i in $$(seq 1 50); do \
	  curl -fsS http://$(HTTP_SMOKE_ADDR)/metrics > /tmp/isolevel-metrics.out 2>/dev/null && ok=1 && break; \
	  sleep 0.2; \
	done; \
	test -n "$$ok" || { echo "http-smoke: endpoint never answered"; cat /tmp/isolevel-http.log; exit 1; }; \
	curl -fsS -o /dev/null http://$(HTTP_SMOKE_ADDR)/debug/pprof/ && \
	curl -fsS -o /dev/null http://$(HTTP_SMOKE_ADDR)/debug/vars && \
	grep -q "^isolevel_op_latency" /tmp/isolevel-metrics.out && \
	grep -q "^isolevel_lock_grants_total" /tmp/isolevel-metrics.out && \
	echo "http-smoke: ok"'

# Traffic-tier smoke: start `serve -family keyrange` with metrics, drive
# it with a fixed-seed mixed-level load (hot keys induce lock conflicts),
# and assert a healthy run: zero protocol errors, nonzero commits, and
# the server counter families live on /metrics. Background the server,
# poll until the HTTP endpoint answers, always kill.
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
	echo "serve-smoke: ok"'

# Differential isolation fuzzing: 1000 seeded schedules against every
# engine family at every level, checked against the Table 4 oracle.
fuzz:
	$(GO) run ./cmd/isolevel fuzz -seed 1 -n 1000

# Mixed isolation levels: every transaction of a schedule at its own
# sampled level (all six locking degrees in one lock manager, SI + RC on
# the unified mv engine), judged by the per-transaction oracle.
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
