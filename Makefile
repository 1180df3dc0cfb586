# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make docs` is the documentation gate — godoc
# must render every package and every exported identifier must carry a doc
# comment (cmd/doccheck).

GO ?= go

.PHONY: build test race vet fmt docs golden golden-check bench bench-check

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
	$(GO) test -run xxx -bench 'Table2Macromodel|MacromodelEngine|AlignWorstCase' -benchmem .
	$(GO) test -run xxx -bench 'MulVecInto' -benchmem ./internal/linalg
	$(GO) test -run xxx -bench 'INVLoadCurveSweep|NAND2LoadCurveSweepFine' -benchmem ./internal/charlib

# bench-check vets and tests the benchmark module (every workload at tiny
# sizes, with its output checks). It is a module of its own, so `go test
# ./...` does not reach it.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
