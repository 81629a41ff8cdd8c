# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

# BENCHTIME bounds each benchmark's measuring time; raise it for stabler
# numbers, lower it for a quick smoke run.
BENCHTIME ?= 1s

.PHONY: test
test:
	go build ./...
	go vet ./...
	go test ./...
	$(MAKE) bench-smoke

.PHONY: bench-smoke
# bench-smoke keeps the request-path benchmark (the nested module bench/,
# which `go test ./...` from the root does not reach) compiling against
# this tree and passing its own unit tests and 2 s correctness-gated run.
bench-smoke:
	(cd bench && go test ./...)

# FUZZTIME is how long fuzz-smoke mutates each target.
FUZZTIME ?= 3s

.PHONY: fuzz-smoke
# fuzz-smoke runs every fuzz target for a few seconds — 18 of them: each
# decoder a byzantine or unauthenticated peer can reach (blocks, gossip
# messages, evidence, snapshot chunks, the snapshot meta
# frame, the wire reader and stream framing, the sync channel's delta
# request and stream — its watermark answer has had no decoder, so no
# target, since PR 30 — and the gateway's submit body, which any client
# writes), the two a failing disk can (store WAL records, the store's
# head), the graph's rows against their map-per-property reference
# (graph.FuzzRows: inserts, refusals, forks, seeded roots), and the
# key set against a map + slice one (keyset.FuzzSet: adds, repeats, lookups,
# oldest-first pops across compactions, a follower column), and the node's
# build schedule against a model of its bound (node.FuzzSchedule: any
# sequence of deliveries, ticks, early turns and seals). `go test`
# without -fuzz only replays the seed corpus; this also proves the targets
# still mutate, and a crasher it finds lands in the package's
# testdata/fuzz to be checked in as a regression seed. -fuzz takes one
# target and one package at a time, hence the loop.
fuzz-smoke:
	@set -e; \
	for pkg in $$(go list ./...); do \
		for target in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			go test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done; \
	echo "fuzz-smoke OK"

.PHONY: race
# race is the concurrency-bug hunt CI runs: the full suite under the race
# detector (tcpnet handshakes, node runtime, syncsvc admission control).
race:
	go test -race ./...

.PHONY: flake-smoke
# flake-smoke repeats the socket and timing tests of the catch-up path —
# the store's replay included: it is the same absorb with the disk as the
# peer, the assembly's snapshot rejoin: every tier over one listener, and
# its accountability run (an equivocator banned over TCP and across a
# Restart), the cut tests (the store's PruneTo, and the node's that its
# Tick never checkpoints) and the store's read-back of released blocks
# (the location column a cut marks under the DAG's feet), the
# serving side of a pull (a started node's reads in its loop's turns, while
# that loop inserts) and of the snapshot tier (meta and chunk calls reading
# the store's head while the loop seals and cuts), a started node's
# answer to a peer's full block (a delivery racing the loop's timers), its
# seal of a request submitted while idle (Submit's wake over a real socket) and
# its first poll (the loop's first turn racing peers that boot, a slow one
# abandoned on Tick's clock) —
# ten times under the race detector, so a test that fails one run in five (as
# TestAuthWrongKeyRejected did until PR 12) is caught in the PR that
# introduces it rather than blocking unrelated work later. The -run filter
# keeps it to a few minutes.
flake-smoke:
	go test -race -count=10 -run 'CatchUp|Follow|Fetch|Pull|Auth|Restore|Replay|Restart|Reopen|Torn|Rejoin|Release|Checkpoint|Prune|RowBack|Serve|StartedNodeAnswers|StartedNodeSealsAnIdle|FirstPoll|ColdStart' \
		./internal/node ./internal/syncsvc ./internal/tcpnet ./internal/core ./internal/store ./internal/deploy

# experiments-md prints EXPERIMENTS.md for the tables cmd/experiments wrote
# to the file $(1): a header, then the tables verbatim in a code block.
define experiments-md
{ printf '%s\n' '# Experiments' '' \
	"The paper's quantitative claims as tables (E5–E16): the output of" \
	'`go run ./cmd/experiments`, seeded and deterministic. `make experiments`' \
	'writes this file; `make experiments-smoke` fails when the output differs.' \
	'' '```'; cat $(1); echo '```'; }
endef

.PHONY: experiments
# experiments runs cmd/experiments and writes its tables to EXPERIMENTS.md,
# which is checked in: a change that moves a message count shows in its diff.
experiments:
	@set -e; \
	d=$$(mktemp -d); \
	trap 'rm -rf $$d' EXIT; \
	go build -o $$d/experiments ./cmd/experiments; \
	$$d/experiments > $$d/tables.txt; \
	$(call experiments-md,$$d/tables.txt) > EXPERIMENTS.md; \
	echo "wrote EXPERIMENTS.md"

.PHONY: experiments-smoke
# experiments-smoke runs cmd/experiments — the paper's quantitative claims as
# tables (E5–E16: compression, signature batching, instances for free,
# reference overhead), seeded and deterministic, about 5 s — and fails on a
# non-zero exit, on a table without a data row, on fewer tables than
# registered experiments, or on tables that differ from the checked-in
# EXPERIMENTS.md (make experiments rewrites it): a change to gossip or to the
# interpreter that moves a message count moves a table.
experiments-smoke:
	@set -e; \
	d=$$(mktemp -d); \
	trap 'rm -rf $$d' EXIT; \
	go build -o $$d/experiments ./cmd/experiments; \
	$$d/experiments > $$d/tables.txt \
		|| { echo "experiments-smoke FAILED: cmd/experiments exited non-zero" >&2; cat $$d/tables.txt >&2; exit 1; }; \
	want=$$($$d/experiments -list | wc -l); \
	awk -v want=$$want ' \
		/^-+$$/ { tables++; if ((getline row) <= 0 || row ~ /^ *$$/ || row ~ /^ *note:/) { print "table " tables " has no data row" > "/dev/stderr"; bad = 1 } } \
		END { if (tables != want) { print tables " tables for " want " experiments" > "/dev/stderr"; bad = 1 }; exit bad }' $$d/tables.txt \
		|| { echo "experiments-smoke FAILED" >&2; cat $$d/tables.txt >&2; exit 1; }; \
	$(call experiments-md,$$d/tables.txt) | diff -u EXPERIMENTS.md - > $$d/diff.txt \
		|| { echo "experiments-smoke FAILED: the tables differ from EXPERIMENTS.md (make experiments rewrites it):" >&2; cat $$d/diff.txt >&2; exit 1; }; \
	echo "experiments-smoke OK: $$want experiments, every table has rows and matches EXPERIMENTS.md"

.PHONY: examples-smoke
# examples-smoke draws a journaled run with the operator's tool: dagsim's
# workload mode journals a run to stores, and dagstore render draws s0's
# store twice: as ASCII, which must name all four builders, and as DOT
# annotated with one BRB instance's buffers, which must carry in:/out:
# lines. The README's worked examples (quickstart, payments, equivocation,
# offline, consensus) are godoc Examples with checked output, run by go
# test: Example_quickstart, Example_payments and Example_equivocation in
# internal/cluster, Example_offline in internal/core, Example_consensus in
# internal/smr. examples/tcp has its own targets: restart-smoke,
# roster-demo, gateway-smoke and snapshot-smoke.
examples-smoke:
	@set -e; \
	d=$$(mktemp -d); \
	trap 'rm -rf $$d' EXIT; \
	go build -o $$d/dagsim ./cmd/dagsim; \
	go build -o $$d/dagstore ./cmd/dagstore; \
	$$d/dagsim -n 4 -instances 4 -store-dir $$d/run > $$d/dagsim.log \
		|| { echo "examples-smoke FAILED: dagsim -store-dir exited non-zero" >&2; cat $$d/dagsim.log >&2; exit 1; }; \
	$$d/dagstore render -dir $$d/run/s0 -format ascii > $$d/dag.txt \
		|| { echo "examples-smoke FAILED: dagstore render -format ascii exited non-zero" >&2; exit 1; }; \
	for i in 0 1 2 3; do \
		grep -q " s$$i/k" $$d/dag.txt \
			|| { echo "examples-smoke FAILED: dagstore render's ASCII names no block of s$$i" >&2; cat $$d/dag.txt >&2; exit 1; }; \
	done; \
	$$d/dagstore render -dir $$d/run/s0 -format dot -protocol brb -label inst/0 > $$d/dag.dot \
		|| { echo "examples-smoke FAILED: dagstore render -protocol brb -label inst/0 exited non-zero" >&2; exit 1; }; \
	grep -q 'in: ' $$d/dag.dot && grep -q 'out: ' $$d/dag.dot \
		|| { echo "examples-smoke FAILED: dagstore render's DOT carries no in:/out: buffer annotations" >&2; cat $$d/dag.dot >&2; exit 1; }; \
	echo "examples-smoke OK: dagstore rendered dagsim's store as ASCII and as annotated DOT"

.PHONY: restart-smoke
# restart-smoke is the README's restart walkthrough as a target: the
# 4-server TCP example runs twice over one -store-dir. The second run must
# replay every store, deliver, and — lingering long enough to build —
# extend every server's own chain; dagstore verify (its strict mode: torn
# tails, duplicates and equivocations are errors) then validates each
# store itself, so a chain that restarted at a used sequence number, or a
# journal the replay left damaged, fails here.
restart-smoke:
	@set -e; \
	d=$$(mktemp -d); \
	trap 'rm -rf $$d' EXIT; \
	go build -o $$d/tcp ./examples/tcp; \
	go build -o $$d/dagstore ./cmd/dagstore; \
	chain() { $$d/dagstore verify -dir $$d/run/s$$1 -n 4 | sed -n "s/^chain    s$$1: \([0-9]*\) blocks.*/\1/p"; }; \
	$$d/tcp -store-dir $$d/run > $$d/first.log; \
	for i in 0 1 2 3; do eval "before$$i=$$(chain $$i)"; done; \
	$$d/tcp -store-dir $$d/run -linger 300ms > $$d/second.log; \
	grep -q "all four servers delivered both broadcasts" $$d/second.log \
		|| { echo "restart-smoke FAILED: second run did not deliver" >&2; cat $$d/second.log >&2; exit 1; }; \
	for i in 0 1 2 3; do \
		grep -q "s$$i store: recovered [1-9]" $$d/second.log \
			|| { echo "restart-smoke FAILED: s$$i replayed nothing" >&2; cat $$d/second.log >&2; exit 1; }; \
		$$d/dagstore verify -dir $$d/run/s$$i -n 4 > $$d/verify.log \
			|| { echo "restart-smoke FAILED: dagstore verify rejected s$$i's store" >&2; cat $$d/verify.log >&2; exit 1; }; \
		eval "before=\$$before$$i"; after=$$(chain $$i); \
		[ "$$after" -gt "$$before" ] \
			|| { echo "restart-smoke FAILED: s$$i's own chain has $$after blocks after the restart, $$before before" >&2; exit 1; }; \
	done; \
	echo "restart-smoke OK: four stores replayed, every chain resumed, dagstore verify clean"

.PHONY: roster-demo
# roster-demo exercises the production identity path end to end with no
# shared seed anywhere: dagroster generates a roster file plus four fresh
# random key files, then four separate OS processes of examples/tcp each
# load ONE key, mutually authenticate every TCP connection against the
# roster, and exchange broadcasts until all four deliver everything.
roster-demo:
	@set -e; \
	d=$$(mktemp -d); \
	port=$$((10000 + $$$$ % 40000)); \
	go build -o $$d/dagroster ./cmd/dagroster; \
	go build -o $$d/tcp ./examples/tcp; \
	$$d/dagroster init -n 4 -dir $$d/deploy -addr-base 127.0.0.1:$$port; \
	$$d/dagroster verify -roster $$d/deploy/roster.txt -key $$d/deploy/s0.key; \
	pids=""; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf $$d' EXIT; \
	for i in 1 2 3; do \
		$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s$$i.key -timeout 30s & \
		pids="$$pids $$!"; \
	done; \
	$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s0.key -timeout 30s; \
	for p in $$pids; do wait $$p; done; \
	echo "roster-demo OK: 4-process cluster from roster files, no shared seed"

.PHONY: gateway-smoke
# gateway-smoke drives the client plane against the same 4-process
# roster-file cluster roster-demo uses: s0 opens the gateway behind a
# bearer token and lingers, an HTTP client submits a request through it,
# long-polls /v1/await until consensus delivers the indication back,
# reads /v1/status, and scrapes /metrics expecting every family a table
# declares (deploy's TestFamilies lists them) in the one registry — but
# for the scorer's, which have a sample per peer with a record, and the
# sync server's, which these storeless nodes do not run.
gateway-smoke:
	@set -e; \
	d=$$(mktemp -d); \
	port=$$((10000 + $$$$ % 40000)); \
	gwport=$$((port + 100)); \
	go build -o $$d/dagroster ./cmd/dagroster; \
	go build -o $$d/tcp ./examples/tcp; \
	$$d/dagroster init -n 4 -dir $$d/deploy -addr-base 127.0.0.1:$$port; \
	pids=""; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf $$d' EXIT; \
	for i in 1 2 3; do \
		$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s$$i.key -timeout 30s -linger 25s & \
		pids="$$pids $$!"; \
	done; \
	$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s0.key -timeout 30s -linger 25s \
		-mempool 64 -gateway 127.0.0.1:$$gwport -gateway-token smoke & \
	pids="$$pids $$!"; \
	base=http://127.0.0.1:$$gwport; \
	ok=""; \
	for i in $$(seq 1 60); do \
		code=$$(curl -s -o $$d/submit.json -w '%{http_code}' -X POST $$base/v1/submit \
			-H 'Authorization: Bearer smoke' -H 'Content-Type: application/json' \
			-d '{"label":"smoke/hello","data":"through the front door"}' || true); \
		[ "$$code" = 202 ] && { ok=1; break; }; \
		sleep 0.5; \
	done; \
	[ -n "$$ok" ] || { echo "gateway-smoke FAILED: submit never accepted (last: $$code)" >&2; cat $$d/submit.json >&2 || true; exit 1; }; \
	curl -sf -H 'Authorization: Bearer smoke' "$$base/v1/await/smoke/hello?timeout=20s" > $$d/await.json; \
	grep -q 'through the front door' $$d/await.json || { echo "gateway-smoke FAILED: await payload wrong" >&2; cat $$d/await.json >&2; exit 1; }; \
	curl -sf -H 'Authorization: Bearer smoke' $$base/v1/status > $$d/status.json; \
	grep -q '"healthy":true' $$d/status.json || { echo "gateway-smoke FAILED: node not healthy" >&2; cat $$d/status.json >&2; exit 1; }; \
	curl -sf $$base/metrics > $$d/metrics.txt; \
	families=$$(go test -run '^TestFamilies$$' -v ./internal/deploy | sed -n 's/^family //p' | grep -v '^peerscore_\|^syncsvc_'); \
	[ -n "$$families" ] || { echo "gateway-smoke FAILED: deploy's TestFamilies listed no family" >&2; exit 1; }; \
	for family in $$families; do \
		grep -q "^# TYPE $$family " $$d/metrics.txt || { echo "gateway-smoke FAILED: scrape missing $$family" >&2; cat $$d/metrics.txt >&2; exit 1; }; \
	done; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST $$base/v1/submit -d '{"label":"x","data":"y"}'); \
	[ "$$code" = 401 ] || { echo "gateway-smoke FAILED: tokenless submit = $$code, want 401" >&2; exit 1; }; \
	for p in $$pids; do wait $$p; done; \
	echo "gateway-smoke OK: HTTP submit -> consensus -> await + live /metrics scrape"

.PHONY: snapshot-smoke
# snapshot-smoke proves the third catch-up tier end to end over real
# TCP: a 4-process roster cluster runs with Merkle state commitments and
# history pruning, one server's store is wiped, and the restarted server
# rejoins from a roster-certified state snapshot plus a short validated
# delta — without replaying the pruned history, which no longer exists
# anywhere. dagstore verify first re-proves the store the first run cut in
# place (PruneTo, at the interpreter's cut, which -state turns on) — it
# must reopen, validate and hold a horizon — and then the rejoined store
# offline: the journaled chunks must rebuild the committed root. Between
# the two, dagstore render draws the cut store annotated with the
# greeting's buffers, interpreting it from its pruned-history base.
snapshot-smoke:
	@set -e; \
	d=$$(mktemp -d); \
	port=$$((10000 + $$$$ % 40000)); \
	go build -o $$d/dagroster ./cmd/dagroster; \
	go build -o $$d/dagstore ./cmd/dagstore; \
	go build -o $$d/tcp ./examples/tcp; \
	$$d/dagroster init -n 4 -dir $$d/deploy -addr-base 127.0.0.1:$$port; \
	pids=""; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf $$d' EXIT; \
	for i in 1 2 3; do \
		$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s$$i.key \
			-store-dir $$d/s$$i -state -timeout 30s -linger 40s & \
		pids="$$pids $$!"; \
	done; \
	$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s0.key \
		-store-dir $$d/s0 -state -timeout 30s -linger 3s > $$d/s0-first.log; \
	root=$$(sed -n 's/.*sealed slot [0-9]* root \([0-9a-f]*\).*/\1/p' $$d/s0-first.log); \
	[ -n "$$root" ] || { echo "snapshot-smoke FAILED: first run sealed nothing" >&2; cat $$d/s0-first.log >&2; exit 1; }; \
	$$d/dagstore verify -dir $$d/s0 -roster $$d/deploy/roster.txt > $$d/verify-cut.log \
		|| { echo "snapshot-smoke FAILED: dagstore verify rejected the store the first run cut" >&2; cat $$d/verify-cut.log >&2; exit 1; }; \
	grep -q "pruned   horizon" $$d/verify-cut.log \
		|| { echo "snapshot-smoke FAILED: the first run's store holds no pruned horizon" >&2; cat $$d/verify-cut.log >&2; exit 1; }; \
	$$d/dagstore render -dir $$d/s0 -roster $$d/deploy/roster.txt -protocol brb -label greet/s0 > $$d/cut.dot \
		|| { echo "snapshot-smoke FAILED: dagstore render could not draw the store the first run cut" >&2; exit 1; }; \
	rm -rf $$d/s0; \
	$$d/tcp -roster $$d/deploy/roster.txt -key $$d/deploy/s0.key \
		-store-dir $$d/s0 -state -snapshot-join -timeout 30s > $$d/s0-rejoin.log; \
	grep -q "snapshot join: installed certified state" $$d/s0-rejoin.log \
		|| { echo "snapshot-smoke FAILED: wiped node did not join via the snapshot tier" >&2; cat $$d/s0-rejoin.log >&2; exit 1; }; \
	grep -q "root $$root" $$d/s0-rejoin.log \
		|| { echo "snapshot-smoke FAILED: rejoined root differs from the pre-wipe root $$root" >&2; cat $$d/s0-rejoin.log >&2; exit 1; }; \
	$$d/dagstore verify -dir $$d/s0 -roster $$d/deploy/roster.txt > $$d/verify.log \
		|| { echo "snapshot-smoke FAILED: dagstore verify rejected the rejoined store" >&2; cat $$d/verify.log >&2; exit 1; }; \
	grep -q "pruned   horizon" $$d/verify.log \
		|| { echo "snapshot-smoke FAILED: rejoined store holds no pruned horizon" >&2; cat $$d/verify.log >&2; exit 1; }; \
	grep -q "chunks verified" $$d/verify.log \
		|| { echo "snapshot-smoke FAILED: state chunks do not rebuild the root" >&2; cat $$d/verify.log >&2; exit 1; }; \
	kill $$pids 2>/dev/null || true; pids=""; \
	echo "snapshot-smoke OK: wiped node rejoined from a certified snapshot (root $$root), pruned store verifies"

.PHONY: chaos-smoke
# chaos-smoke runs two short seeded chaos scenarios end to end through
# the dagsim entry point: a partition with f equivocators (conviction,
# bans everywhere, bans survive an honest restart) and a crash/recover
# storm (durability + convergence). Each exits non-zero on any invariant
# violation, and the fixed seeds make a failure reproducible verbatim.
# The partition's stores are then read with the operator's own tool:
# dagstore inspect must list both equivocators (s5, s6) as banned in every
# correct slot's head (s0-s4), and its rebuild of each store must detect a
# forked slot of each (an EQUIVOCATION line: the fork detection a restart
# relies on, end to end). Not verify: those stores hold the forks, which
# verify rejects by design.
chaos-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go run ./cmd/dagsim -chaos partition-equivocators -seed 7 -store-dir "$$dir"; \
	go build -o "$$dir/dagstore" ./cmd/dagstore; \
	for i in 0 1 2 3 4; do \
		out=$$("$$dir/dagstore" inspect -dir "$$dir/s$$i" -n 7); \
		for eq in s5 s6; do \
			echo "$$out" | grep -q "^banned   $$eq:" || { echo "chaos-smoke: s$$i's store holds no proof against $$eq"; exit 1; }; \
			echo "$$out" | grep -q "^EQUIVOCATION $$eq " || { echo "chaos-smoke: rebuilding s$$i's store detected no fork of $$eq"; exit 1; }; \
		done; \
	done; \
	echo "chaos-smoke: the stores of s0-s4 hold the proofs against s5 and s6, and rebuilding them detects both forks"
	go run ./cmd/dagsim -chaos crash-storm -seed 3
	@echo "chaos-smoke OK: both scenarios passed their invariants"

.PHONY: docs-check
# docs-check keeps the documentation honest: it fails when a package
# exists under internal/ or cmd/ that README.md's package map (or, for
# internal/, docs/ARCHITECTURE.md) does not mention, when either file
# names a package that no longer exists, or when the tree (godoc
# examples included) stops vetting/building. It also keeps "a deployed
# node is assembled in internal/deploy" true: non-test Go outside that
# package (and outside bench/, frozen until the next benchmark PR) may not
# bind a tcpnet listener, late-bind an endpoint or construct a sync server
# — the simulator's slots are deploy's assemblies too. It keeps "tcpnet
# proves who is at the far end of a link" true: non-test Go outside
# internal/tcpnet may not build a handshake proof (transport.AuthContext),
# so a second challenge-response cannot grow back. And it fails when
# non-test Go or a document
# (ROADMAP.md and CHANGES.md, which are history, and the retrieved ISSUE,
# SNIPPETS and PAPERS files excepted) cites a top-level ALLCAPS.md that is
# not in the tree, as four packages cited EXPERIMENTS.md and DESIGN.md for
# twenty PRs. And it keeps "a metric is declared once" true: the name of
# every family deploy's TestFamilies lists occurs in non-test Go exactly
# once, on a row of a metrics.Table (Families.Counter / Families.Gauge).
# And "one ref -> number index per node" (docs/ARCHITECTURE.md, "What a
# block costs a node"): no struct field in non-test Go is a map keyed by
# block.Ref, gossip's three in-flight sets excepted — they hold what is
# pending, not the run. The index the rule protects, graph's table of row
# numbers, is no map at all.
# CI runs it on every push.
docs-check:
	@missing=0; \
	for p in $$(ls internal); do \
		grep -q "internal/$$p" README.md || { echo "README.md package map is missing internal/$$p" >&2; missing=1; }; \
		grep -q "internal/$$p" docs/ARCHITECTURE.md || { echo "docs/ARCHITECTURE.md is missing internal/$$p" >&2; missing=1; }; \
	done; \
	for p in $$(ls cmd); do \
		grep -q "cmd/$$p" README.md || { echo "README.md package map is missing cmd/$$p" >&2; missing=1; }; \
	done; \
	for p in $$(ls examples); do \
		grep -q "examples/$$p" README.md || { echo "README.md is missing examples/$$p" >&2; missing=1; }; \
	done; \
	for m in $$(grep -oh 'internal/[a-z]*\|cmd/[a-z]*\|examples/[a-z]*' README.md docs/ARCHITECTURE.md | sort -u); do \
		[ -d "$$m" ] || { echo "docs name $$m, which does not exist" >&2; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] || { echo "docs-check FAILED: package map out of sync" >&2; exit 1; }
	@wired=$$(grep -rnE 'tcpnet\.Listen\(|transport\.LateBound|syncsvc\.Server\{' --include='*.go' internal cmd examples \
		| grep -v '_test\.go:' | grep -v '^internal/deploy/' || true); \
	[ -z "$$wired" ] || { echo "docs-check FAILED: a node is assembled by hand outside internal/deploy:" >&2; echo "$$wired" >&2; exit 1; }
	@handshakes=$$(grep -rn 'transport\.AuthContext(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
		| grep -v '^\./internal/tcpnet/' || true); \
	[ -z "$$handshakes" ] || { echo "docs-check FAILED: a link handshake outside internal/tcpnet (the simulator trusts its links):" >&2; echo "$$handshakes" >&2; exit 1; }
	@gone=$$(grep -rnoP '(?<![/\w.-])[A-Z][A-Z0-9_]+\.md\b' --include='*.go' --include='*.md' \
			--exclude='*_test.go' --exclude-dir=.bench_build . \
		| grep -vE '^\./(ROADMAP|CHANGES|ISSUE|SNIPPETS|PAPERS)\.md:' \
		| while IFS= read -r hit; do [ -e "$${hit##*:}" ] || echo "$$hit"; done); \
	[ -z "$$gone" ] || { echo "docs-check FAILED: citation of a top-level document that does not exist:" >&2; echo "$$gone" >&2; exit 1; }
	@families=$$(go test -run '^TestFamilies$$' -v ./internal/deploy | sed -n 's/^family //p'); \
	[ -n "$$families" ] || { echo "docs-check FAILED: deploy's TestFamilies listed no family" >&2; exit 1; }; \
	for f in $$families; do \
		hits=$$(grep -rn "\"$$f\"" --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . || true); \
		[ "$$(printf '%s\n' "$$hits" | grep -c .)" -eq 1 ] && printf '%s\n' "$$hits" | grep -qE 'Families\.(Counter|Gauge)\(' \
			|| { echo "docs-check FAILED: family $$f is not declared exactly once, as a row of a metrics.Table:" >&2; echo "$$hits" >&2; exit 1; }; \
	done
	@indexes=$$(grep -rnE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+map\[block\.Ref\]' --include='*.go' --exclude='*_test.go' \
			--exclude-dir=bench --exclude-dir=.bench_build . \
		| grep -vE '^\./internal/gossip/gossip\.go:[0-9]+:[[:space:]]+(pending|waiters)[[:space:]]' || true); \
	[ -z "$$indexes" ] || { echo "docs-check FAILED: a struct field keyed by block.Ref; number the block once (dag.Index) and keep a column or a count:" >&2; echo "$$indexes" >&2; exit 1; }
	go vet ./...
	go build ./...
	go test -run Example ./...
	@echo "docs-check OK: package map in sync; one handshake, tcpnet's; every metric family declared once; one ref-keyed index; examples vet and build"

# WORKLOAD and SECONDS pick heap-profile's and cpu-profile's dagbench run.
WORKLOAD ?= sparse
SECONDS ?= 20

.PHONY: heap-profile
# heap-profile shows where the heap goes at the moment dagbench reads
# heap_mb_end (docs/ARCHITECTURE.md, "What a block costs a node"): one
# workload through bench.Run under GOGC=off, heap_mb_end and the top in-use
# sites of the heap profile taken at that reading. The scratch module it
# builds lives in .bench_build/heapprof; bench/ is not touched. CI runs it
# once, at SECONDS=2, so the recipe cannot rot.
heap-profile:
	bash scripts/heap-profile.sh $(WORKLOAD) $(SECONDS)

.PHONY: cpu-profile
# cpu-profile shows where a dagbench run's CPU goes: one workload through
# bench.Run under pprof.StartCPUProfile, its cpu_user_ms_per_req, and the
# profile's top sites by cumulative time. The scratch module it builds
# lives in .bench_build/cpuprof, with the profile for -list; bench/ is not
# touched. CI runs it once, at SECONDS=2.
cpu-profile:
	bash scripts/cpu-profile.sh $(WORKLOAD) $(SECONDS)

# PARENT and PAIRS pick bench-pairs' comparison; WORKLOAD and SECONDS its runs.
PAIRS ?= 10

.PHONY: bench-pairs
# bench-pairs is the ruler for a performance claim: PAIRS alternating pairs
# of dagbench runs (bench/run.sh -workload WORKLOAD), this tree against
# PARENT checked out with git worktree under .bench_build/pairs, and each
# end-to-end metric's median, quartiles and pair wins. bench/ is not
# touched.
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [WORKLOAD=sparse] [PAIRS=10] [SECONDS=20]" >&2; exit 2; }
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SECONDS)

.PHONY: bench
# bench runs the Go microbenchmarks with allocation counts, for a human
# to read. Nothing gates on them: the ruler for a performance claim is
# dagbench (bench/, BENCHMARK.json — repeated, paired, fingerprinted
# runs), and the allocation invariants worth failing a build over are
# ordinary deterministic tests (block/encodeonce_test.go,
# brb.TestReceiveAllocations, protocol_test.go's AllocsPerRun).
bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

# KNOBS_MAX is the ceiling on configuration fields no non-test code sets,
# and on exported names under internal/ no non-test code uses — each count
# apart. It only falls: a PR that turns a knob into a constant lowers it to
# the new count. No field and no name is counted today.
KNOBS_MAX = 0

.PHONY: knobs
# knobs lists the options nobody sets and the names nobody calls. deploy's
# TestKnobs (behind the knobs build tag, so go test ./... does not pay for
# it) type-checks every package of the tree and of bench/, tests included.
# It counts for each exported field of a configuration struct the
# composite literals that name it, the assignments to it and the places
# its address is taken (flag.*Var) outside the declaring file — non-test
# code and tests apart — and prints the fields non-test code never sets:
# one value in use, so a constant (ROADMAP aim 2). It also prints every
# exported func, method, type, var and const declared in a non-test file
# under internal/ that no non-test file of either module uses: a godoc
# Example counts as a caller; a method an interface the scan loads declares
# (same name and signature) and every name of a package only tests import
# (dagtest) are exempt. Both lists are the next subtraction's input. It
# fails when either count is above KNOBS_MAX: a new knob nobody sets needs
# a setter, a new name nobody calls a caller, or the ceiling a reason to
# rise.
knobs:
	KNOBS_MAX=$(KNOBS_MAX) go test -tags knobs -count=1 -run '^TestKnobs$$' -v ./internal/deploy

.PHONY: loc
# loc prints non-test Go lines per package outside bench/, smallest
# first, and the total — ROADMAP aim 2's trend line. CI runs it on every
# PR (never failing), so each log shows what the change did to it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		| xargs wc -l | grep -v ' total$$' \
		| awk '{ n = split($$2, p, "/"); d = "."; for (i = 2; i < n; i++) d = d "/" p[i]; loc[d] += $$1; total += $$1 } \
			END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d total\n", total }' \
		| sort -n
