#!/bin/sh
# CI gate: vet, lint, build, and run the full test suite under the race
# detector (the parallel check engine is concurrency-heavy, so -race is
# mandatory, not optional). Run from the repository root:
#
#   ./scripts/ci.sh          # full suite
#   ./scripts/ci.sh -short   # fast subset (exhaustive explorations skipped)
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed, skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck ./..."
	govulncheck ./...
else
	echo "==> govulncheck not installed, skipping"
fi
echo "==> go build ./..."
go build ./...
echo "==> gemlint -deep examples/specs"
go run ./cmd/gemlint -deep examples/specs/*.gem
echo "==> observability smoke: -stats/-trace produce valid trace-event JSON"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/gemlint -deep -stats -trace "$tracedir/lint.json" examples/specs/*.gem >/dev/null 2>"$tracedir/lint.stats"
go run ./cmd/gemcheck -j 2 -cache off -stats -trace "$tracedir/check.json" rw >/dev/null 2>"$tracedir/check.stats"
go run ./cmd/tracecheck -min-spans 1 "$tracedir/lint.json" "$tracedir/check.json"
grep -q '== spans ==' "$tracedir/check.stats"
grep -q 'explore.dup' "$tracedir/check.stats"
echo "==> gemgo fixture corpora: defects report exactly their code, cleans report nothing"
go build -o "$tracedir/gemgo" ./cmd/gemgo
for dir in internal/gofront/testdata/src/*/ internal/race/testdata/src/*/; do
	name="$(basename "$dir")"
	out="$tracedir/gemgo.$name.out"
	status=0
	"$tracedir/gemgo" "$dir" >"$out" 2>&1 || status=$?
	case "$name" in
	clean_*)
		if [ "$status" -ne 0 ] || [ -s "$out" ]; then
			echo "==> FAIL: clean fixture $name reported findings (exit $status):" >&2
			cat "$out" >&2
			exit 1
		fi
		;;
	*)
		want="$(echo "$name" | cut -d_ -f1 | tr '[:lower:]' '[:upper:]')"
		got="$(grep -o 'GEM[0-9]*' "$out" | sort -u)"
		if [ "$status" -eq 0 ] || [ "$got" != "$want" ]; then
			echo "==> FAIL: fixture $name: want exactly $want (exit nonzero), got codes [$got] exit $status:" >&2
			cat "$out" >&2
			exit 1
		fi
		;;
	esac
done
echo "==> gemgo SARIF smoke: corpus output is one valid gemgo-driver run"
"$tracedir/gemgo" -format=sarif internal/gofront/testdata/src/... >"$tracedir/gemgo.sarif" || true
grep -q '"version": "2.1.0"' "$tracedir/gemgo.sarif"
grep -q '"name": "gemgo"' "$tracedir/gemgo.sarif"
grep -q '"ruleId": "GEM013"' "$tracedir/gemgo.sarif"
echo "==> gemgo race-pass SARIF smoke over a racy fixture"
"$tracedir/gemgo" -format=sarif internal/race/testdata/src/gem018_unlocked_counter >"$tracedir/race.sarif" || true
grep -q '"version": "2.1.0"' "$tracedir/race.sarif"
grep -q '"ruleId": "GEM018"' "$tracedir/race.sarif"
echo "==> gemgo race corpus: -j1 and -j4 output byte-identical"
"$tracedir/gemgo" -j 1 internal/race/testdata/src/... >"$tracedir/race.j1.out" || true
"$tracedir/gemgo" -j 4 internal/race/testdata/src/... >"$tracedir/race.j4.out" || true
cmp "$tracedir/race.j1.out" "$tracedir/race.j4.out"
grep -q 'GEM018' "$tracedir/race.j1.out"
grep -q 'GEM019' "$tracedir/race.j1.out"
grep -q 'GEM020' "$tracedir/race.j1.out"
echo "==> lattice engine gate: full matrix under forced -engine lattice, no silent seq fallback"
# -cache off keeps this gate hermetic: a warm store would serve the
# verdicts from disk and the engine.lattice spans below would vanish.
go run ./cmd/gemverify -engine lattice -j 2 -cache off -stats >/dev/null 2>"$tracedir/verify.stats"
# The lattice engine must actually carry the temporal restrictions...
grep -q 'engine\.lattice ' "$tracedir/verify.stats"
# ...and never hit an inconclusive bound: a fallback counter in the
# stats means some check silently delegated to sequence enumeration.
if grep -q 'engine\.lattice\.fallback' "$tracedir/verify.stats"; then
	echo "==> FAIL: lattice engine silently fell back to seq on a shipped spec" >&2
	grep 'engine\.lattice\.fallback' "$tracedir/verify.stats" >&2
	exit 1
fi
echo "==> incremental store smoke: warm repeat hits, identical verdicts and SARIF"
cachedir="$tracedir/cache"
go run ./cmd/gemverify -engine lattice -j 2 -cache rw -cache-dir "$cachedir" \
	-sarif "$tracedir/cold.sarif" -stats >"$tracedir/cold.out" 2>"$tracedir/cold.stats"
go run ./cmd/gemverify -engine lattice -j 2 -cache rw -cache-dir "$cachedir" \
	-sarif "$tracedir/warm.sarif" -stats >"$tracedir/warm.out" 2>"$tracedir/warm.stats"
# The warm run must actually be served from the store...
grep -Eq 'store\.hit +[1-9]' "$tracedir/warm.stats"
# ...reporting verdicts identical modulo the per-run TIME column...
awk '{$4=""; print}' "$tracedir/cold.out" >"$tracedir/cold.verdicts"
awk '{$4=""; print}' "$tracedir/warm.out" >"$tracedir/warm.verdicts"
diff "$tracedir/cold.verdicts" "$tracedir/warm.verdicts"
# ...and a byte-identical SARIF log.
cmp "$tracedir/cold.sarif" "$tracedir/warm.sarif"
echo "==> gemverify -j1 and -j4: identical verdicts and byte-identical SARIF"
go build -o "$tracedir/gemverify" ./cmd/gemverify
"$tracedir/gemverify" -j 1 -cache off -sarif "$tracedir/j1.sarif" >"$tracedir/verify.j1.out"
"$tracedir/gemverify" -j 4 -cache off -sarif "$tracedir/j4.sarif" >"$tracedir/verify.j4.out"
awk '{$4=""; print}' "$tracedir/verify.j1.out" >"$tracedir/verify.j1.verdicts"
awk '{$4=""; print}' "$tracedir/verify.j4.out" >"$tracedir/verify.j4.verdicts"
diff "$tracedir/verify.j1.verdicts" "$tracedir/verify.j4.verdicts"
cmp "$tracedir/j1.sarif" "$tracedir/j4.sarif"
echo "==> gemcheck rw -j1 and -j4: byte-identical variant table"
go build -o "$tracedir/gemcheck" ./cmd/gemcheck
"$tracedir/gemcheck" -j 1 -cache off rw >"$tracedir/rw.j1.out"
"$tracedir/gemcheck" -j 4 -cache off rw >"$tracedir/rw.j4.out"
cmp "$tracedir/rw.j1.out" "$tracedir/rw.j4.out"
echo "==> explorer reduction gate: the matrix walks each computation once"
# Sleep sets must reach each of the matrix's 217 computations at exactly
# one terminal state: a duplicate means an interleaving slipped through,
# a missing leaf means a computation was pruned.
"$tracedir/gemverify" -j 1 -cache off -stats >/dev/null 2>"$tracedir/explore.stats"
dup="$(awk '$1 == "explore.dup" {print $2}' "$tracedir/explore.stats")"
leaves="$(awk '$1 == "explore.leaves" {print $2}' "$tracedir/explore.stats")"
if [ "$dup" != 0 ] || [ "$leaves" != 217 ]; then
	echo "==> FAIL: explorer reached explore.leaves=$leaves explore.dup=$dup; want 217 and 0" >&2
	exit 1
fi
echo "==> mutation campaign gate: fixed seed, zero findings, -j1/-j4 byte-identical"
# A fixed-seed 250-mutant campaign must complete with zero engine
# disagreements and zero shrinker validation failures (gemmut exits
# non-zero on any finding), and the report must be a pure function of
# the seed: identical bytes at any parallelism. -cache off keeps the
# gate hermetic.
go build -o "$tracedir/gemmut" ./cmd/gemmut
"$tracedir/gemmut" -n 250 -seed 7 -j 1 -cache off >"$tracedir/mut.j1.out"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache off >"$tracedir/mut.j4.out"
cmp "$tracedir/mut.j1.out" "$tracedir/mut.j4.out"
grep -q 'findings: none' "$tracedir/mut.j1.out"
echo "==> larger mutation campaign gate: 2000 mutants, zero findings"
# Every mutant is checked by all three engines. On temporal restrictions
# the lattice engine reads its immediate leaves from the bitset evaluator
# (internal/logic/histeval.go) while the seq engine evaluates them with
# Formula.Eval's per-history tree walk, so the engines' agreement checks
# one against the other. □-invariants go to the bitset evaluator under
# every engine; there every reported witness is re-checked with
# Formula.Eval (Counterexample.Verify).
"$tracedir/gemmut" -n 2000 -seed 11 -j 2 -cache off >"$tracedir/mut2000.out"
grep -q 'findings: none' "$tracedir/mut2000.out"
echo "==> mutation corpus smoke: persisted campaign replays with engine agreement"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache rw -cache-dir "$tracedir/mutcache" >/dev/null
"$tracedir/gemmut" -replay gemmut -cache rw -cache-dir "$tracedir/mutcache" | grep -q 'engines agree on all'
echo "==> worker pool under -race, repeated: logic.FirstFailure and the campaign fan-out"
go test -race -count=10 -run 'FirstFailure|CampaignDeterministicAcrossParallelism' ./internal/logic ./internal/mutate
echo "==> go test -race $* ./..."
go test -race "$@" ./...
echo "==> bench smoke (-short, one iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x -short ./... >/dev/null
echo "==> ok"
