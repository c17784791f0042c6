# Developer entry points.  `make verify` is the tier-1 gate every PR must
# keep green: a full type-check of every target, the test suite (whose
# @runtest alias includes the repo invariant linter, tools/lint/, over
# the whole tree: zero unannotated findings; plus a pass with a live
# stderr tracing sink, which must not move any numeric), the
# view-driven paper experiments Table I, Fig. 2 and
# Fig. 9 (about 1 s; bench/main.exe exits 1 when Table I's
# score-decay check fails; then every tracked file they rewrite under
# _artifacts/bench/ must come out byte for byte as committed, a check
# skipped outside a git checkout), `sider convergence three_d` (its table must
# hold exactly one row per sweep its two update lines report, numbered
# from 1 in each update), the end-to-end benchmark's smoke run (every
# workload at quarter size through a real `sider api`, with all its
# correctness checks: bit-identical replay, converged updates, expected
# statuses; after the tests, not beside them, because it keeps both CPUs
# of a 2-vCPU machine busy), the in-process harness's count gate against
# the committed bench/baseline.json with its incremental-update,
# null-sink and labeled-metrics gates (`make bench-diff`, about a
# second), the error smoke (a NaN cell: one diagnostic line, exit 2) and
# the service smoke run.

.PHONY: all build check test lint lint-fixtures lint-sarif verify clean \
        bench bench-diff error-smoke service-smoke convergence-smoke \
        artifacts-unchanged

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

# sider-lint over the typed AST of every library/executable (see
# DESIGN.md §10); exits non-zero on any unannotated finding.
lint:
	dune build @lint

# The linter's own expected-output suite (also part of `dune runtest`).
lint-fixtures:
	dune build @lint-fixtures

# Same scan as `make lint`, plus a SARIF 2.1.0 report for code-scanning
# UIs (CI uploads it via codeql-action/upload-sarif, which checks the
# file itself; the emitter's bytes are pinned by the fixture suite's
# SARIF golden).  The SARIF file is written even when findings fail the
# scan, and the target exits with the scan's own status.
lint-sarif:
	dune build @check tools/lint/sider_lint.exe
	mkdir -p _artifacts
	cd _build/default && \
	  ./tools/lint/sider_lint.exe \
	    --sarif ../../_artifacts/sider-lint.sarif \
	    lib bin bench test examples

verify:
	dune build @check && dune runtest \
	  && SIDER_TRACE=stderr dune runtest --force \
	  && dune exec bench/main.exe -- -e table1 fig2 fig9 \
	  && $(MAKE) artifacts-unchanged \
	  && $(MAKE) convergence-smoke \
	  && dune build @bench/e2e/smoke && $(MAKE) bench-diff \
	  && $(MAKE) error-smoke && $(MAKE) service-smoke

# Fails when a tracked paper artifact under _artifacts/bench/ differs
# from the index, as it does after `-e table1 fig2 fig9` when a change
# moved a view.  Outside a git checkout (a source tarball) there is
# nothing to compare against, so it says so and passes.
artifacts-unchanged:
	@if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then \
	  git diff --exit-code --stat -- _artifacts/bench \
	    || { echo "artifacts-unchanged: _artifacts/bench/ moved" >&2; \
	         exit 1; }; \
	else echo "artifacts-unchanged: not a git checkout, skipped"; fi

# `sider convergence three_d` prints one table row per completed sweep of
# its two solves (margin, then 1-cluster).  Fails unless the table's
# sweep column is exactly 1..a then 1..b for the a and b sweeps the two
# update lines report.
convergence-smoke:
	out="$$(dune exec bin/sider_cli.exe -- convergence three_d)" \
	  || exit 1; \
	echo "$$out"; \
	echo "$$out" | awk ' \
	  $$2 == "update:" { n++; for (i = 1; i <= $$3; i++) want = want " " i } \
	  table { got = got " " $$1 } \
	  $$1 == "sweep" && $$2 == "max|dl|" { table = 1 } \
	  END { if (n != 2 || got != want) { \
	    print "convergence-smoke: table sweeps [" got " ] for reported [" \
	      want " ]" > "/dev/stderr"; exit 1 } }'

# A CSV with a NaN cell is a data fault: `sider view` must report it in
# one `sider: ...` line and exit 2, not die on an uncaught exception.
error-smoke:
	dune build bin/sider_cli.exe
	mkdir -p _artifacts
	printf 'a,b\n1,2\n3,nan\n' > _artifacts/error-smoke.csv
	_build/default/bin/sider_cli.exe view _artifacts/error-smoke.csv \
	  2> _artifacts/error-smoke.err; code=$$?; cat _artifacts/error-smoke.err; \
	[ $$code -eq 2 ] && ! grep -q 'Fatal error' _artifacts/error-smoke.err \
	  || { echo "error-smoke: exit $$code, want a diagnostic and 2" >&2; \
	       exit 1; }

# End-to-end smoke of the session service: one `sider api` process with
# write-ahead journaling, the compaction threshold forced low, a 0.2 s
# TTL and a JSON access log, driven over its port by a small concurrent
# mixed-persona `sider load` (create → constrain → update → projection).
# It fails unless the load's lifecycle line reports a compaction (each
# reads its session's dataset back from the journal header); unless
# `doctor --snapshot` replays a journal that has a sibling snapshot
# (snapshot-aware replay) and the stores every build must keep loading,
# test/golden/compat.journal, compat.snapshot and compat_final.json;
# unless `doctor --trace` finds the access
# log's first `sider load` trace id in _artifacts/flight/; unless `sider
# top`, once the TTL has passed, reports an evicted session; and unless
# SIGINT drains the service to exit 0.  `sider load` never revisits a
# session, so nothing here rehydrates: the tier-1 `service` tests "ttl
# evicts and rehydrates" and "eviction/rehydration race" cover it.
# stderr, with any crash-forensics flight-recorder dumps, lands in
# _artifacts/flight/, which CI uploads as an artifact on failure.
service-smoke:
	dune build bin/sider_cli.exe
	mkdir -p _artifacts/flight
	rm -rf _artifacts/service-smoke-wal
	S=_build/default/bin/sider_cli.exe; F=_artifacts/flight; \
	W=_artifacts/service-smoke-wal; A=$$F/service-smoke-api.out; \
	$$S api --port 0 --data-dir $$W --ttl 0.2 --compact-threshold 4 \
	  --access-log $$F/service-smoke-access.jsonl \
	  > $$A 2>> $$F/service-smoke.stderr & pid=$$!; \
	fail () { echo "service-smoke: $$1" >&2; kill $$pid 2>/dev/null; exit 1; }; \
	for i in $$(seq 100); do \
	  P="$$(sed -n 's|^session API on http://127\.0\.0\.1:\([0-9]*\) .*|\1|p' $$A)"; \
	  [ -n "$$P" ] && break; sleep 0.1; done; \
	[ -n "$$P" ] || fail "no api banner"; \
	out="$$($$S load --port $$P --sessions 24 --concurrency 8 --rows 32 \
	  --persona mixed 2>> $$F/service-smoke.stderr)" || fail "load failed"; \
	echo "$$out"; \
	echo "$$out" | awk '$$1 == "lifecycle:" && $$4 >= 1 { ok = 1 } \
	  END { exit !ok }' || fail "no compaction reported"; \
	J="$$(ls $$W/*.snapshot 2>/dev/null | head -n 1 | sed 's/\.snapshot$$/.journal/')"; \
	[ -n "$$J" ] || fail "no compacted journal"; \
	$$S doctor --snapshot "$$J" 2>> $$F/service-smoke.stderr \
	  || fail "doctor --snapshot $$J"; \
	for g in compat.journal compat.snapshot compat_final.json; do \
	  $$S doctor --snapshot test/golden/$$g 2>> $$F/service-smoke.stderr \
	    || fail "doctor --snapshot test/golden/$$g"; done; \
	T="$$(sed -n 's/.*"trace":"\(load-[^"]*\)".*/\1/p' \
	      $$F/service-smoke-access.jsonl | head -n 1)"; \
	[ -n "$$T" ] || fail "no load trace in the access log"; \
	$$S doctor --trace "$$T" $$F || fail "doctor --trace $$T"; \
	sleep 0.6; \
	top="$$($$S top --port $$P --count 1)"; echo "$$top"; \
	echo "$$top" | awk '$$1 == "sessions:" && $$4 >= 1 { ok = 1 } \
	  END { exit !ok }' || fail "no eviction reported"; \
	kill -INT $$pid; wait $$pid; code=$$?; \
	[ $$code -eq 0 ] || fail "api exited $$code"

# Re-measure every in-process scenario and rewrite the committed
# baseline, bench/baseline.json: walls, exact work counts and the
# environment the counts depend on (OCaml version, AVX2 ICA kernel).
# Commit it with a change that moves a count on purpose.
bench:
	dune exec bench/bench_regress.exe -- --out bench/baseline.json

# The count gate: re-measure and fail when any count differs from the
# committed baseline (counts whose environment differs are skipped by
# name), or when the incremental-update, null-sink or labeled-metrics
# gate fails.  Walls are reported, not compared.
bench-diff:
	dune exec bench/bench_regress.exe -- --baseline bench/baseline.json

clean:
	dune clean
