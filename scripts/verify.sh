#!/bin/sh
# verify.sh — the full local gate: one run per distinct build configuration.
# Every package's tests run in full in the configuration that arms them; no
# step re-runs a subset of another. Run from anywhere inside the repo.
set -eux

cd "$(dirname "$0")/.."

# Plain build, go vet (copylocks included), and the in-tree lock-hierarchy
# linter with every rule (`madeusvet -list`). The build comes first: the
# linter refuses a package that does not type-check.
go build ./...
go vet ./...
go run ./cmd/madeusvet ./...

# Every Go file, the benchmark module's too, is gofmt-clean.
test -z "$(gofmt -l .)"

# The whole suite under the race detector.
go test -race -count=1 ./...

# Runtime assertions armed, in the packages that carry them.
go test -tags invariants -count=1 ./internal/wal/ ./internal/mvcc/ ./internal/lsir/ ./internal/engine/

# Failpoints armed: the registry and the hardened wire client; the chaos
# migration suite with core's runtime assertions armed too.
go test -tags faultinject -race -count=1 ./internal/fault/ ./internal/wire/
go test -tags "invariants faultinject" -race -count=1 ./internal/core/

# Tag matrix: every tag-gated variant and the combined build must compile,
# so a tagged file and its stub cannot drift apart in any name a caller
# uses.
go build -tags invariants ./...
go build -tags faultinject ./...
go build -tags "invariants faultinject" ./...

# The pacing-convergence scenario skips itself under -race (throttled
# writers would measure the detector, not the controller), so it runs here
# without it. The disabled-cost contracts of the invariant/fault/flow layers
# need no such step: TestDisabledOverhead at the repo root checks their
# compiled code, building its fixture plain and with -tags faultinject, in
# every run of the suite above.
go test -count=1 -run 'TestHeavyWriteMigrationConvergesWithPacing' ./internal/core/

# benchrunner -json smoke, so the BENCH_*.json baseline path stays alive.
go run ./cmd/benchrunner -exp table2 -quick -json /dev/null >/dev/null

# The wire result decoder's fuzz target for ten seconds beyond its committed
# seed corpus (plain `go test` above only replays the corpus).
go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 10s ./internal/wire/

# The restore's transfer decoder likewise: a DUMP STREAM chunk it accepts
# re-encodes to the same bytes.
go test -run '^$' -fuzz '^FuzzDecodeStreamChunk$' -fuzztime 10s ./internal/wire/

# The row-statement decoder every restored, checkpointed and replayed row
# goes through likewise: any bytes leave no row behind or are accepted and
# dump back to the same rows.
go test -run '^$' -fuzz '^FuzzApplyRows$' -fuzztime 10s ./internal/engine/

# The traced-query decoder a node runs on every migration frame likewise: a
# payload it accepts re-encodes to the same bytes.
go test -run '^$' -fuzz '^FuzzDecodeTraced$' -fuzztime 10s ./internal/wire/

# The WAL segment scanner Open and Replay run over durable logs likewise: it
# never panics, a torn or corrupt frame ends the scan at the last good
# frame, and every record it accepts re-encodes to the same bytes.
go test -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime 10s ./internal/wal/

# The SQL parser's fuzz target the same way: it never panics, every
# statement it accepts renders to SQL that parses back to the same text,
# and the input's shape, parsed and bound to its arguments (what the
# engine runs), renders as Parse's statement and fails exactly when Parse
# does.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/sqlmini/

# The row codec every stored version goes through the same way: any row
# encodes and decodes back to an equal row, bit for bit.
go test -run '^$' -fuzz '^FuzzRowCodec$' -fuzztime 10s ./internal/mvcc/

# The executor's read-shape benchmarks, one iteration each, so they keep
# building and running (the numbers are read with -benchtime of your own).
go test -count=1 -run '^$' -bench Select -benchtime 1x ./internal/engine/

# The version store's insert and scan benchmarks likewise: loads through the
# chain directory (a restore's interleaved chunks, sparse keys, one commit
# per row) and full scans.
go test -count=1 -run '^$' -bench '^Benchmark(Insert|Scan)' -benchtime 1x ./internal/mvcc/

# The migration's dump (DumpStream) and restore (one chunk applied as one
# row statement) benchmarks, likewise.
go test -count=1 -run '^$' -bench 'Dump|Restore' -benchtime 1x ./internal/engine/

# The benchmark instrument is its own module.
(cd benchmark && go vet ./... && go test -count=1 ./...)
