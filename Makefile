GO ?= go

.PHONY: all vet build test race layering examples profile metricssmoke clustersmoke fuzz-smoke loc ci

all: ci

# bench/ is a nested module ./... never descends into, so it is vetted
# by name: an internal symbol the harness imports cannot be deleted
# without this failing. An unformatted file fails the target too.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector gates every PR: the service serializes a
# single-threaded BDD manager behind a mutex, and the concurrent
# service tests exist to catch lock-discipline regressions.
race:
	$(GO) test -race ./...

# The front ends (service, coord, cmd/*) reach sharded runs,
# guards, watched contexts, stats flushes and coverage views through
# internal/engine only; this parses them and fails on a direct call. The
# race run covers it too — named here so a failure says what broke.
layering:
	$(GO) test -run '^TestFrontEndsDriveTheEngine$$' ./internal/engine

# Run every walkthrough under examples/: they are what keeps most of
# the yardstick facade's names alive (TestFacadeNamesHaveCallers), so
# they must run, not just compile. Output is discarded; a non-zero exit
# fails the target.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Archive a span-tree profile of the regional-Clos suite (the flame
# report -profile prints to stderr) so perf work has a committed-able
# before/after stage breakdown to diff against.
profile:
	$(GO) run ./cmd/yardstick -topology regional -suite default,internal,reach,pingmesh -workers 4 -profile 2> profile.txt > /dev/null
	@cat profile.txt

# Live-scrape check: boot the daemon for real on two workers, submit a
# suite as a job and poll it until it is done (the daemon's -workers
# alone shards it), pull /metrics, and fail if the exposition is
# malformed — the golden test pins bytes, this pins the wire. Two reads
# of the coverage view with nothing in between: the first re-derives
# every device, the second must be clean. The first read also checks
# that /coverage copies no engine counters: the canonical manager's
# gauges are series, each with HELP text. The CI metrics-smoke job runs
# this target.
metricssmoke:
	$(GO) build -o /tmp/yardstickd ./cmd/yardstickd
	$(GO) build -o /tmp/promlint ./cmd/promlint
	set -e; \
	/tmp/yardstickd -listen 127.0.0.1:18085 -topology regional -workers 2 & DPID=$$!; \
	trap "kill $$DPID 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18085/readyz > /dev/null && break; sleep 0.2; done; \
	ID=$$(curl -sf -X POST 'http://127.0.0.1:18085/jobs?suite=default,internal' | jq -r .id); \
	for i in $$(seq 1 300); do \
		STATE=$$(curl -sf http://127.0.0.1:18085/jobs/$$ID | jq -r .state); \
		case $$STATE in done|failed|cancelled) break;; esac; sleep 0.1; \
	done; \
	[ "$$STATE" = done ] || { echo "job $$ID ended $$STATE, want done"; exit 1; }; \
	curl -sf http://127.0.0.1:18085/coverage | jq -e 'has("engine") | not' > /dev/null; \
	curl -sf http://127.0.0.1:18085/gaps > /dev/null; \
	curl -sf http://127.0.0.1:18085/metrics > /tmp/metrics.txt; \
	/tmp/promlint < /tmp/metrics.txt; \
	grep -q '^yardstick_coverage_reads_total{result="refreshed"} 1$$' /tmp/metrics.txt; \
	grep -q '^yardstick_coverage_reads_total{result="clean"} 1$$' /tmp/metrics.txt; \
	grep -q '^yardstick_coverage_refresh_devices_total [1-9]' /tmp/metrics.txt; \
	grep -q '^yardstick_sharded_runs_total 1$$' /tmp/metrics.txt; \
	grep -q '^yardstick_sharded_workers 2$$' /tmp/metrics.txt; \
	for g in nodes unique_slots unique_load cache_slots satfrac_entries; do \
		grep -q "^yardstick_engine_$$g [0-9]" /tmp/metrics.txt; \
		grep -q "^# HELP yardstick_engine_$$g [A-Z]" /tmp/metrics.txt; \
	done

# Chaos-prove the distributed path: boot three empty workers, run the
# coordinator with enough rounds to stretch the shard list (idempotent
# merge, coverage unchanged), SIGKILL one worker midway, and require
# exit 0 with a coverage table byte-identical to the single-node
# sequential baseline — the distributed merge is an exact, idempotent
# union, so node death plus re-dispatch must not change a single digit.
# The CI cluster-smoke job runs this target and uploads
# cluster-report.json, coord-metrics.txt and coord.log, which stay
# behind pass or fail. In order, the recipe checks that:
#  - the coordinator's federated /metrics, scraped mid-run once the
#    first federation sweep has landed and the first shard has been
#    dispatched, is promlint-clean, carries the native coord metrics and
#    every worker's series under its node label;
#  - the middle worker dies only after it has accepted real work (20 of
#    the 360 shard submissions) — a deterministic mid-run kill, immune
#    to host speed, not a timed sleep that can land after the run ended;
#  - the kill was observed: some breaker tripped;
#  - the wire ledger shows the network was pushed exactly once to each
#    worker that started empty — all three; the killed one got its push
#    before it died and never came back, and a worker that restarted
#    empty mid-run would add one push each time (every completed shard's
#    fragment travelled as a YSS1 arena: the coordinator refuses any
#    other body, which coord.TestNonArenaFragmentFailsAttempt pins);
#  - the report has a run ID and a timeline in which every completed
#    shard appears as a coord.shard span whose shard tag matches — the
#    cross-node trace is complete.
clustersmoke:
	$(GO) build -o /tmp/yardstickd ./cmd/yardstickd
	$(GO) build -o /tmp/yardstick ./cmd/yardstick
	$(GO) build -o /tmp/yardstick-coord ./cmd/yardstick-coord
	$(GO) build -o /tmp/promlint ./cmd/promlint
	set -e; \
	/tmp/yardstickd -listen 127.0.0.1:18081 & W1=$$!; \
	/tmp/yardstickd -listen 127.0.0.1:18082 > w2.log 2>&1 & W2=$$!; \
	/tmp/yardstickd -listen 127.0.0.1:18083 & W3=$$!; \
	trap 'kill $$W1 $$W2 $$W3 $$CPID 2>/dev/null || true' EXIT; \
	for p in 18081 18082 18083; do \
		for i in $$(seq 1 50); do curl -sf http://127.0.0.1:$$p/healthz > /dev/null && break; sleep 0.2; done; \
	done; \
	/tmp/yardstick -topology regional -suite default,internal,contract > baseline.out; \
	sed -n '/^coverage:/,$$p' baseline.out | sed '/^$$/d' > baseline.cov; \
	/tmp/yardstick-coord \
		-nodes http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083 \
		-suite default,internal,contract -rounds 120 -concurrency 3 -poll 25ms \
		-fail-threshold 2 -cooldown 1s \
		-metrics-addr 127.0.0.1:19090 -scrape-interval 250ms -profile \
		-report cluster-report.json -v > cluster.out 2> coord.log & CPID=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:19090/metrics > coord-metrics.txt \
			&& grep -q 'yardstick_coord_dispatch_total' coord-metrics.txt \
			&& grep -q 'node="http://127.0.0.1:18082"' coord-metrics.txt && break; sleep 0.1; \
	done; \
	/tmp/promlint < coord-metrics.txt; \
	grep -q 'yardstick_coord_dispatch_total' coord-metrics.txt || { echo "no native coord metrics"; exit 1; }; \
	for p in 18081 18083; do \
		grep -q "node=\"http://127.0.0.1:$$p\"" coord-metrics.txt || { echo "worker $$p missing from the federated scrape"; exit 1; }; \
	done; \
	for i in $$(seq 1 200); do \
		n=$$(grep -c 'method=POST path=/jobs ' w2.log || true); \
		[ "$$n" -ge 20 ] && break; sleep 0.05; \
	done; \
	kill -9 $$W2; \
	rc=0; wait $$CPID || rc=$$?; \
	sed '/^timeline:/q' cluster.out; \
	test $$rc -eq 0 || { echo "coordinator exited $$rc"; exit $$rc; }; \
	awk '/^coverage:/{f=1} /^timeline:|^wrote run report/{f=0} f' cluster.out | sed '/^$$/d' > cluster.cov; \
	diff baseline.cov cluster.cov; \
	report() { jq -e "$$1" cluster-report.json > /dev/null || { echo "$$2"; exit 1; }; }; \
	grep -Eq '"trips": [1-9]' cluster-report.json || { echo "kill was not observed: no breaker trip"; exit 1; }; \
	report '.networkPushes == 3' "want one network push per worker that started empty"; \
	report '(.runId | length > 0) and .timeline != null' "report has no run ID or no run timeline"; \
	report '[.timeline | recurse(.children[]?) | select(.name == "coord.shard") | .tags[]? | select(.name == "shard") | .value] as $$traced | [.shards[] | select(.done) | "s\(.id)"] | all(. as $$s | $$traced | index($$s) != null)' "a completed shard is missing from the timeline"; \
	echo "cluster == single-node: exact (1 worker SIGKILLed mid-run; fleet /metrics lint-clean)"; \
	rm -f baseline.out baseline.cov cluster.out cluster.cov w2.log

# Fuzz every target that guards an invariant or a decoder for a fixed
# FUZZTIME each (go test -fuzz takes one target and one package per
# run), twenty-one in all: the differential matrix's in-process engine
# configurations against the sequential reference (internal/difftest),
# the coverage view against its from-scratch oracle, a batch of concrete
# pings' marking against the union of each one's singleton at every hop,
# the bulk packet-set build against the Or of the singletons, the
# append network encoder against the struct-based reference, the
# fingerprint resumed from sha256 marks across random removes, modifies,
# adds, rewires and clones against the hash of the reference encoding, an
# accepted delta document against a rebuild (and a rejected one against
# an untouched network), the forwarding index against the rule-by-rule
# flood, the first-match traceroute, the ordered match-set walk and the
# rule's own next hops on seeded random tables, the contract tests'
# next-hop lookup against the same checks read rule by rule on a
# fat-tree with seeded broken routes, the BDD restriction walk against the
# conjunction with a literal chain, hash consing's canonicity across
# unique-table resizes (a construction script replayed in two managers
# lands on the same node indices), the longest-match prefix walk
# against the Or/Diff fold (and a cancellation in its middle), the trace
# JSON round trip, a worker's metric snapshot against the coordinator's
# promlint-clean fleet exposition, a BDD arena's import into a manager
# that already holds nodes against its decode into a fresh one, and the
# decoders that read bytes from disk or a peer (BDD arena, trace
# snapshot arena, trace JSON, network JSON, network text, span
# profile). The CI fuzz-smoke job runs this target.
FUZZTIME ?= 20s
FUZZ_TARGETS = \
	./internal/difftest:FuzzMatrix \
	./internal/delta:FuzzViewEquivalence \
	./internal/delta:FuzzDeltaEquivalence \
	./internal/netmodel:FuzzEncodeJSONNames \
	./internal/netmodel:FuzzFingerprintMarks \
	./internal/netmodel:FuzzDecodeJSON \
	./internal/netmodel:FuzzParseText \
	./internal/dataplane:FuzzForwardingIndex \
	./internal/testkit:FuzzContractCheck \
	./internal/bdd:FuzzRestrict \
	./internal/bdd:FuzzUniqueResizeCanonicity \
	./internal/hdr:FuzzLongestMatch \
	./internal/hdr:FuzzPackets \
	./internal/core:FuzzMarkConcrete \
	./internal/bdd:FuzzArenaDecode \
	./internal/bdd:FuzzArenaImport \
	./internal/core:FuzzSnapshotArenaDecode \
	./internal/core:FuzzTraceRoundTrip \
	./internal/core:FuzzDecodeTraceJSON \
	./internal/obs:FuzzSpanProfileDecode \
	./internal/obs:FuzzFederationIngest

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime $(FUZZTIME) "$${t%%:*}" || exit 1; \
	done

# Non-test Go lines per package of the root module (bench/ is its own
# module and is left out), then the total: the numbers CHANGES.md quotes
# when a PR claims the code got smaller.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Every step of CI's test job (vet, build, the race run, the
# walkthroughs), then the test half of its bench-harness job (vet runs
# the other half), so an internal change that breaks a harness test
# fails here too.
ci: vet build layering race examples
	$(GO) test -C bench .
