# Tier-1 verify loop: static analysis, build+tests, and a race pass
# over the concurrent verification engine.
GO ?= go
RESUME_DIR ?= .verify-resume
OBS_DIR ?= .obs-smoke
ROUTED_DIR ?= .routed-smoke

.PHONY: verify build test vet vet386 race bench-routing bench bench-diff bench-smoke verify-resume obs-smoke routed-smoke

# Routing benchmarks: the adjacency-index and parallel-verification
# suites plus the A10 orbit kernel against the full-enumeration
# oracle; -benchmem adds the B/op and allocs/op columns the kernel
# work is judged by. Every bench target runs with -cpu 1: the
# BENCH_routing.json baseline was recorded at GOMAXPROCS=1, and on a
# multi-core box `go test` would otherwise append -N to every name (so
# no row matches the baseline) and run the GOMAXPROCS worker counts in
# parallel.
BENCH_PATTERN = BenchmarkVerifyFullRoutingAdjacency|BenchmarkA7ParallelVerification|BenchmarkA10OrbitReduction
BENCH_FLAGS = -run xxx -bench '$(BENCH_PATTERN)' -benchtime 5x -benchmem -cpu 1

verify: vet test race vet386

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# 32-bit build + vet pass: catches int-width truncation bugs (like the
# nzKey byte(idx) collision and unguarded int(int64) casts on the
# checkpoint claim path) that are invisible on 64-bit hosts.
vet386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

# The routing package owns all the goroutine fan-out (parallel
# Routing Theorem verification, lazy CSR index construction), the
# serve package layers SSE fan-out and the job broadcaster on top, and
# the obs package's runtime sampler publishes into the registry on
# every read, from the debug server and the heartbeat at once; run all
# three under the race detector on every verify.
race:
	$(GO) test -race ./internal/routing/... ./internal/serve/... ./internal/obs/...

bench-routing:
	$(GO) test $(BENCH_FLAGS) .

# Machine-readable routing benchmark results (paths/s and allocation
# columns next to ns/op), via the stdlib-only converter in
# cmd/benchjson — no jq required. Single shell + trap so the
# intermediate .out is removed even when the bench or the converter
# fails.
bench:
	@set -e; trap 'rm -f bench_routing.out' EXIT; \
	$(GO) test $(BENCH_FLAGS) . > bench_routing.out; \
	$(GO) run ./cmd/benchjson -o BENCH_routing.json < bench_routing.out

# Benchmark regression diff: rerun the routing suite and compare the
# ns/op / B/op / allocs/op columns against the checked-in
# BENCH_routing.json baseline via cmd/benchjson. allocs/op is the hard
# leg (benchjson -hard, exit 4 fails the target and CI): allocation
# counts are deterministic, so a regression there is a real kernel
# change, never runner noise. The wall-clock columns stay soft —
# shared runners are too noisy to gate on ns/op — so benchjson's soft
# exit 3 is downgraded to a warning while the delta table in the log
# keeps the regression visible.
# benchjson is run as a built binary, not `go run`: go run collapses
# every non-zero child exit to 1, which would erase the soft-vs-hard
# distinction the gate depends on.
BENCH_TOLERANCE ?= 25
bench-diff:
	@set -e; trap 'rm -f bench_diff.out bench_diff.benchjson' EXIT; \
	$(GO) test $(BENCH_FLAGS) . > bench_diff.out; \
	$(GO) build -o bench_diff.benchjson ./cmd/benchjson; \
	st=0; ./bench_diff.benchjson -baseline BENCH_routing.json -tolerance $(BENCH_TOLERANCE) -hard allocs/op < bench_diff.out || st=$$?; \
	if [ $$st -eq 3 ]; then echo "bench-diff: WARNING: soft (wall-clock) metric past $(BENCH_TOLERANCE)% — not failing the gate"; st=0; fi; \
	exit $$st

# CI smoke: one iteration of the parallel-verification benchmark, with
# allocation counts — catches a bench-harness or kernel regression
# without paying for a full measured run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkA7ParallelVerification' -benchtime 1x -benchmem -cpu 1 .

# End-to-end checkpoint/resume acceptance check: pause a Strassen k=4
# verification after 3 of 8 shards, resume it at a different worker
# count, and require the final stats line to be byte-identical to an
# uninterrupted full-enumeration (-orbits=false) run, so the gate also
# cross-checks the default orbit kernel against the oracle. Exit code 3 is the verifier's "paused, rerun with
# -resume" signal. Single shell + trap so the scratch dir is removed
# even when a step fails.
verify-resume:
	@set -e; trap 'rm -rf $(RESUME_DIR)' EXIT; \
	rm -rf $(RESUME_DIR); mkdir -p $(RESUME_DIR); \
	$(GO) build -o $(RESUME_DIR)/routecheck ./cmd/routecheck; \
	st=0; $(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 3 -shardrows 64 -maxshards 3 \
		-checkpoint $(RESUME_DIR)/k4.ckpt -journal $(RESUME_DIR)/runs.jsonl \
		> $(RESUME_DIR)/paused.out || st=$$?; \
	if [ $$st -ne 3 ]; then echo "expected pause exit 3, got $$st"; exit 1; fi; \
	$(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 5 \
		-checkpoint $(RESUME_DIR)/k4.ckpt -resume -journal $(RESUME_DIR)/runs.jsonl \
		> $(RESUME_DIR)/resumed.out; \
	$(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 2 -orbits=false > $(RESUME_DIR)/fresh.out; \
	grep '^stats:' $(RESUME_DIR)/resumed.out > $(RESUME_DIR)/resumed.stats; \
	grep '^stats:' $(RESUME_DIR)/fresh.out > $(RESUME_DIR)/fresh.stats; \
	cmp $(RESUME_DIR)/resumed.stats $(RESUME_DIR)/fresh.stats; \
	$(RESUME_DIR)/routecheck -summarize $(RESUME_DIR)/runs.jsonl; \
	echo "verify-resume: PASS — resumed stats byte-identical to an uninterrupted run"

# Observability acceptance check: run a real verification with the
# debug server on an ephemeral port, scrape /metrics and /healthz, and
# assert the routing metric families and the live progress document are
# there. -debughold keeps the server up after the (short) run so the
# scrape cannot race its exit. Then the paperrepro leg: a quick E3
# sweep must journal one final per configuration (8) and leave a CPU
# profile pprof parses, and so must the unknown-experiment error exit
# (exit 2), whose os.Exit skips deferred calls.
obs-smoke:
	@set -e; pid=""; trap 'rm -rf $(OBS_DIR); [ -z "$$pid" ] || kill $$pid 2>/dev/null || true' EXIT; \
	rm -rf $(OBS_DIR); mkdir -p $(OBS_DIR); \
	$(GO) build -o $(OBS_DIR)/routecheck ./cmd/routecheck; \
	$(OBS_DIR)/routecheck -alg strassen -k 4 -shardrows 64 \
		-checkpoint $(OBS_DIR)/k4.ckpt -debugaddr 127.0.0.1:0 -debughold 60s \
		> $(OBS_DIR)/run.out 2> $(OBS_DIR)/run.err & pid=$$!; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url=$$(sed -n 's/^debug server listening on //p' $(OBS_DIR)/run.err); \
		[ -n "$$url" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url" ]; then echo "obs-smoke: debug server never announced its URL"; cat $(OBS_DIR)/run.err; exit 1; fi; \
	ok=""; i=0; while [ $$i -lt 100 ]; do \
		if curl -sf "$$url/healthz" > $(OBS_DIR)/healthz.json 2>/dev/null \
			&& grep -q '"progress"' $(OBS_DIR)/healthz.json \
			&& grep -q '"checkpoint_shards"' $(OBS_DIR)/healthz.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "obs-smoke: /healthz never reported progress + shard coverage"; cat $(OBS_DIR)/healthz.json 2>/dev/null; exit 1; fi; \
	grep -q '"status": "ok"' $(OBS_DIR)/healthz.json; \
	curl -sf "$$url/metrics" > $(OBS_DIR)/metrics.txt; \
	grep -q '^# TYPE routing_paths_verified_total counter' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_paths_verified_total ' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_paths_per_second ' $(OBS_DIR)/metrics.txt; \
	grep -q '^# TYPE routing_shard_enumerate_seconds histogram' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_shard_enumerate_seconds_bucket{le="+Inf"} ' $(OBS_DIR)/metrics.txt; \
	curl -sfo /dev/null "$$url/debug/pprof/"; \
	$(GO) build -o $(OBS_DIR)/paperrepro ./cmd/paperrepro; \
	$(OBS_DIR)/paperrepro -experiment E3 -quick -journal $(OBS_DIR)/e3.jsonl \
		-cpuprofile $(OBS_DIR)/e3.pb.gz > $(OBS_DIR)/e3.out; \
	$(OBS_DIR)/routecheck -summarize $(OBS_DIR)/e3.jsonl > $(OBS_DIR)/e3.summary; \
	grep -q ', 8 finals,' $(OBS_DIR)/e3.summary \
		|| { echo "obs-smoke: paperrepro E3 journal does not show 8 finals"; cat $(OBS_DIR)/e3.summary; exit 1; }; \
	$(GO) tool pprof -raw $(OBS_DIR)/e3.pb.gz > /dev/null \
		|| { echo "obs-smoke: paperrepro E3 CPU profile does not parse"; exit 1; }; \
	st=0; $(OBS_DIR)/paperrepro -experiment nope -cpuprofile $(OBS_DIR)/nope.pb.gz 2> $(OBS_DIR)/nope.err || st=$$?; \
	if [ $$st -ne 2 ]; then echo "obs-smoke: paperrepro -experiment nope exited $$st, want 2"; cat $(OBS_DIR)/nope.err; exit 1; fi; \
	$(GO) tool pprof -raw $(OBS_DIR)/nope.pb.gz > /dev/null \
		|| { echo "obs-smoke: paperrepro error-exit CPU profile does not parse"; exit 1; }; \
	echo "obs-smoke: PASS — /metrics and /healthz live on $$url; paperrepro journal and CPU profiles complete on normal and error exits"

# Verification-service acceptance check, three legs against real
# daemons on ephemeral ports. Signal leg: SIGTERM a fresh daemon as
# soon as it announces its URL and require a clean drain (exit 0 and
# the "draining" line), not a kill by the default signal action. Cache
# leg: submit a job, poll it to completion,
# resubmit the identical spec, and require the response to be served
# from the result cache — "cached": true and the engine's
# routing_paths_verified_total counter not advancing (nothing was
# re-enumerated). Durability leg: submit a 76-shard job to a daemon
# started with the -crashaftershards failpoint, let it die mid-job
# (exit 2, checkpoints flushed per shard), restart over the same data
# dir, and require the recovered job to resume and finish with a
# certificate byte-identical to the uninterrupted run from the first
# leg. The resume is watched two ways at once: an SSE stream on
# /jobs/{id}/events whose terminal `final` event must carry the same
# certificate the polling loop sees, and the per-job journals of both
# daemon generations, which routelog must merge into a single trace
# (the trace ID is persisted with the spec, so the crash and resume
# legs share one identity). The resumed job's final doc must also
# carry a populated resources block with legs=2 — cost accounting
# accumulated across both daemon generations, not reset by the crash.
# The restarted daemon must also serve a non-empty heap profile at
# /debug/pprof/heap, and its first /metrics scrape must carry
# proc_heap_bytes (the runtime families are sampled on every read, not
# by a background cadence).
routed-smoke:
	@set -e; pids=""; trap 'rm -rf $(ROUTED_DIR); [ -z "$$pids" ] || kill $$pids 2>/dev/null || true' EXIT; \
	rm -rf $(ROUTED_DIR); mkdir -p $(ROUTED_DIR); \
	$(GO) build -o $(ROUTED_DIR)/routed ./cmd/routed; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data0 \
		2> $(ROUTED_DIR)/d0.err & dpid=$$!; pids="$$dpid"; \
	i=0; while [ $$i -lt 1000 ]; do \
		grep -q '^routed listening on ' $(ROUTED_DIR)/d0.err && break; i=$$((i+1)); sleep 0.01; done; \
	if [ $$i -ge 1000 ]; then echo "routed-smoke: signal-leg daemon never announced its URL"; cat $(ROUTED_DIR)/d0.err; exit 1; fi; \
	kill -TERM $$dpid; st=0; wait $$dpid || st=$$?; \
	if [ $$st -ne 0 ]; then echo "routed-smoke: daemon SIGTERMed at its announcement exited $$st, want 0"; cat $(ROUTED_DIR)/d0.err; exit 1; fi; \
	grep -q ': draining' $(ROUTED_DIR)/d0.err \
		|| { echo "routed-smoke: daemon SIGTERMed at its announcement did not drain"; cat $(ROUTED_DIR)/d0.err; exit 1; }; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data1 \
		-journal $(ROUTED_DIR)/d1.jsonl 2> $(ROUTED_DIR)/d1.err & pids="$$pids $$!"; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d1.err); \
		[ -n "$$url" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url" ]; then echo "routed-smoke: daemon1 never announced its URL"; cat $(ROUTED_DIR)/d1.err; exit 1; fi; \
	curl -sf -X POST -d '{"alg":"strassen","k":2}' "$$url/jobs" > $(ROUTED_DIR)/submit1.json; \
	id=$$(sed -n 's/^  "id": "\(j[0-9]*\)",*$$/\1/p' $(ROUTED_DIR)/submit1.json); \
	if [ -z "$$id" ]; then echo "routed-smoke: no job id in submit response"; cat $(ROUTED_DIR)/submit1.json; exit 1; fi; \
	ok=""; i=0; while [ $$i -lt 600 ]; do \
		curl -sf "$$url/jobs/$$id" > $(ROUTED_DIR)/job1.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job1.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: job $$id never completed"; cat $(ROUTED_DIR)/job1.json; exit 1; fi; \
	curl -sf "$$url/metrics" | sed -n 's/^routing_paths_verified_total //p' > $(ROUTED_DIR)/paths1; \
	curl -sf -X POST -d '{"alg":"strassen","k":2}' "$$url/jobs" > $(ROUTED_DIR)/submit2.json; \
	grep -q '"cached": true' $(ROUTED_DIR)/submit2.json \
		|| { echo "routed-smoke: resubmission missed the result cache"; cat $(ROUTED_DIR)/submit2.json; exit 1; }; \
	curl -sf "$$url/metrics" | sed -n 's/^routing_paths_verified_total //p' > $(ROUTED_DIR)/paths2; \
	cmp $(ROUTED_DIR)/paths1 $(ROUTED_DIR)/paths2 \
		|| { echo "routed-smoke: cache hit re-enumerated paths"; exit 1; }; \
	curl -sf -X POST -d '{"alg":"strassen","k":4,"shardrows":64}' "$$url/jobs" > $(ROUTED_DIR)/submit3.json; \
	id=$$(sed -n 's/^  "id": "\(j[0-9]*\)",*$$/\1/p' $(ROUTED_DIR)/submit3.json); \
	ok=""; i=0; while [ $$i -lt 3600 ]; do \
		curl -sf "$$url/jobs/$$id" > $(ROUTED_DIR)/job3.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job3.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: reference k=4 job never completed"; cat $(ROUTED_DIR)/job3.json; exit 1; fi; \
	sed -n 's/^  "certificate": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job3.json > $(ROUTED_DIR)/fresh.cert; \
	[ -s $(ROUTED_DIR)/fresh.cert ] || { echo "routed-smoke: no certificate in reference job"; exit 1; }; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data2 \
		-journal $(ROUTED_DIR)/d2.jsonl \
		-crashaftershards 3 2> $(ROUTED_DIR)/d2.err & cpid=$$!; \
	url2=""; i=0; while [ $$i -lt 100 ]; do \
		url2=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d2.err); \
		[ -n "$$url2" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url2" ]; then echo "routed-smoke: failpoint daemon never announced its URL"; cat $(ROUTED_DIR)/d2.err; exit 1; fi; \
	curl -sf -X POST -d '{"alg":"strassen","k":4,"shardrows":64}' "$$url2/jobs" > $(ROUTED_DIR)/submit4.json; \
	st=0; wait $$cpid || st=$$?; \
	if [ $$st -ne 2 ]; then echo "routed-smoke: expected failpoint exit 2, got $$st"; cat $(ROUTED_DIR)/d2.err; exit 1; fi; \
	grep -q 'failpoint' $(ROUTED_DIR)/d2.err; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data2 \
		-journal $(ROUTED_DIR)/d3.jsonl \
		2> $(ROUTED_DIR)/d3.err & pids="$$pids $$!"; \
	url3=""; i=0; while [ $$i -lt 100 ]; do \
		url3=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d3.err); \
		[ -n "$$url3" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url3" ]; then echo "routed-smoke: restarted daemon never announced its URL"; cat $(ROUTED_DIR)/d3.err; exit 1; fi; \
	curl -sf "$$url3/metrics" > $(ROUTED_DIR)/metrics3.txt; \
	curl -sN "$$url3/jobs/j00000001/events" > $(ROUTED_DIR)/sse.out & pids="$$pids $$!"; \
	ok=""; i=0; while [ $$i -lt 3600 ]; do \
		curl -sf "$$url3/jobs/j00000001" > $(ROUTED_DIR)/job4.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job4.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: crashed job never resumed to completion"; cat $(ROUTED_DIR)/job4.json; exit 1; fi; \
	grep -q '"resumed": true' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: recovered job not marked resumed"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	sed -n 's/^  "certificate": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job4.json > $(ROUTED_DIR)/resumed.cert; \
	cmp $(ROUTED_DIR)/resumed.cert $(ROUTED_DIR)/fresh.cert \
		|| { echo "routed-smoke: resumed certificate differs from uninterrupted run"; exit 1; }; \
	ok=""; i=0; while [ $$i -lt 100 ]; do \
		if grep -q '^event: final' $(ROUTED_DIR)/sse.out 2>/dev/null; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: SSE stream never delivered a final event"; cat $(ROUTED_DIR)/sse.out; exit 1; fi; \
	sed -n '/^event: final/{n;s/.*"certificate":"\([^"]*\)".*/\1/p;}' $(ROUTED_DIR)/sse.out > $(ROUTED_DIR)/sse.cert; \
	cmp $(ROUTED_DIR)/sse.cert $(ROUTED_DIR)/fresh.cert \
		|| { echo "routed-smoke: SSE terminal certificate differs from polled certificate"; cat $(ROUTED_DIR)/sse.out; exit 1; }; \
	grep -q '"legs": 2' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: resumed job doc lacks accumulated resources (legs 2)"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	grep -q '"wall_sec"' $(ROUTED_DIR)/job4.json && grep -q '"queue_wait_sec"' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: resumed job doc has no cost attribution"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	curl -sfo $(ROUTED_DIR)/heap.pb.gz "$$url3/debug/pprof/heap" \
		|| { echo "routed-smoke: /debug/pprof/heap not served"; exit 1; }; \
	[ -s $(ROUTED_DIR)/heap.pb.gz ] || { echo "routed-smoke: heap profile empty"; exit 1; }; \
	grep -q '^proc_heap_bytes [1-9]' $(ROUTED_DIR)/metrics3.txt \
		|| { echo "routed-smoke: first /metrics scrape of the restarted daemon lacks proc_heap_bytes"; cat $(ROUTED_DIR)/metrics3.txt; exit 1; }; \
	tr2=$$(sed -n 's/^  "trace": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job4.json); \
	[ -n "$$tr2" ] || { echo "routed-smoke: resumed job has no trace ID"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	$(GO) run ./cmd/routelog $(ROUTED_DIR)/d2.jsonl $(ROUTED_DIR)/d3.jsonl > $(ROUTED_DIR)/routelog.out; \
	[ $$(grep -c "^trace $$tr2" $(ROUTED_DIR)/routelog.out) -eq 1 ] \
		|| { echo "routed-smoke: crash and resume legs did not merge into one trace"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	grep "^trace $$tr2" $(ROUTED_DIR)/routelog.out | grep -q 'final paths=' \
		|| { echo "routed-smoke: merged trace has no final"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	grep -q '^ waterfall:' $(ROUTED_DIR)/routelog.out \
		|| { echo "routed-smoke: routelog produced no waterfall"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	echo "routed-smoke: PASS — SIGTERM at the announcement drained cleanly; cache hit served without re-enumeration; crashed job resumed to a byte-identical certificate (polled and streamed) with two-leg cost accounting; heap profile and proc_* metrics served; routelog merged both legs into one trace"
