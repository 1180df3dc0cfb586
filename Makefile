# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make docs` is the documentation gate — godoc
# must render every package and every exported identifier must carry a doc
# comment (cmd/doccheck).

GO ?= go

.PHONY: build test race vet fmt docs golden golden-check bench bench-check bench-record

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "unformatted:" $$out; exit 1; fi

# docs renders the full godoc of every package (catching broken doc
# syntax) and lints exported identifiers for missing comments.
docs: vet
	@for pkg in $$($(GO) list ./...); do $(GO) doc -all $$pkg > /dev/null || exit 1; done
	$(GO) run ./cmd/doccheck ./...
	@echo "docs: all packages render; every exported identifier is documented"

golden:
	$(GO) test -run Golden -v .

# golden-check regenerates every golden fixture and fails if a single byte
# moved: the fixtures are the program's exact output on amd64. Go fuses
# multiply-adds on arm64, so run it on amd64 only; the tolerance
# comparisons of `make golden` are the cross-architecture check.
golden-check:
	$(GO) test -count=1 -run Golden . -update
	git diff --exit-code testdata/golden
	@out="$$(git ls-files --others --exclude-standard testdata/golden)"; if [ -n "$$out" ]; then echo "untracked fixtures:" $$out; exit 1; fi

# bench regenerates the benchmark numbers recorded in EXPERIMENTS.md.
bench:
	$(GO) test -run xxx -bench 'DesignAnalyze|LoadCurveCharacterization|Speedup' -benchtime=1x -benchmem .
	$(GO) test -run xxx -bench 'Table2Macromodel|MacromodelEngine|AlignWorstCase|Table1Golden|Table2Golden|AblationMiller' -benchmem .
	$(GO) test -run xxx -bench 'MulVecInto' -benchmem ./internal/linalg
	$(GO) test -run xxx -bench 'TransientLowRank|NewtonSolve' -benchmem ./internal/sim
	$(GO) test -run xxx -bench 'INVLoadCurveSweep|NAND2LoadCurveSweepFine|PropTableTransient' -benchmem ./internal/charlib
	$(GO) test -run xxx -bench 'TheveninFit' -benchmem ./internal/thevenin
	$(GO) test -run xxx -bench 'NRCCharacterize' -benchmem ./internal/nrc

# bench-check vets and tests the benchmark module (every workload at tiny
# sizes, with its output checks). It is a module of its own, so `go test
# ./...` does not reach it.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# bench-record writes BENCH_$(PR).json, the perf record of one change: the
# record of every benchmark workload at seeds 1..3 (`run.sh --runs 3`),
# plus one traced seed-1 pass per workload whose work counters per op land
# in the record's "counters_seed1" block (the counters the CI gate reads),
# plus one pass of the `make bench` micro-benchmarks, whose rows (ns/op,
# B/op, allocs/op and every custom unit, by package and benchmark name as
# `go test` prints them) land in its "micro" block.
# Run it on a quiet machine: `make bench-record PR=24`.
BENCH_WORKLOADS = design-pessimistic design-realistic-warmstore charfarm-corners serve-mixed
BENCH_COUNTERS = sim.dc_solves sim.transients sim.transient_steps sim.newton_iters core.engine_runs

define BENCH_RECORD_PY
import json, sys
rec = json.load(open(".bench_build/record.json"))
ws, names = sys.argv[1].split(), sys.argv[2].split()
runs = {w: json.load(open(".bench_build/counters_%s.json" % w)) for w in ws}
rec["counters_seed1"] = {w: dict(correct=r["correct"], **{n: r["metrics"][n]["value"] for n in names if n in r["metrics"]}) for w, r in runs.items()}
micro, pkg = {}, None
for line in open(".bench_build/micro.txt"):
    f = line.split()
    if line.startswith("pkg: "):
        pkg = f[1]
    elif line.startswith("Benchmark") and len(f) >= 4:
        micro.setdefault(pkg, {})[f[0]] = dict(iterations=int(f[1]), **{u: float(v) for v, u in zip(f[2::2], f[3::2])})
rec["micro"] = micro
json.dump(rec, sys.stdout, indent=2)
print()
endef
export BENCH_RECORD_PY

bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>" >&2; exit 2; }
	mkdir -p .bench_build
	bash benchmark/run.sh --seed 1 --runs 3 --out .bench_build/record.json
	for w in $(BENCH_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1 > .bench_build/counters_$$w.json || exit 1; \
	done
	$(MAKE) -s bench > .bench_build/micro.txt
	python3 -c "$$BENCH_RECORD_PY" "$(BENCH_WORKLOADS)" "$(BENCH_COUNTERS)" > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"
