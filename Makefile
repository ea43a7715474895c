# Targets mirror the CI workflow (.github/workflows/ci.yml); see README.md.

GO ?= go

.PHONY: build test bench bench-figs bench-smoke fuzz-smoke cover serve fmt lint vet loc clean

build:
	$(GO) build ./...

# The benchmark is a module of its own (benchmark/go.mod, replace repro =>
# ../), so ./... does not reach it; its tests are what pin the API it
# measures.
test: vet
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The repository's one benchmark (BENCHMARK.json, benchmark/README.md): both
# workloads, every end-to-end metric, oracles on every run. Arguments pass
# through run.sh, e.g. `bash benchmark/run.sh -workload collab -trace`.
bench:
	bash benchmark/run.sh

# Regenerate the paper's tables and figures (quick grids; -full for the
# paper's grids). See EXPERIMENTS.md.
bench-figs: build
	$(GO) run ./cmd/benchtab -exp all

# Compile-and-run every Go benchmark once, then the benchmark on tiny
# graphs (the CI smoke steps; not a measurement).
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	bash benchmark/run.sh -smoke

# Short fuzz runs of the persistence decoders (internal/store), of the
# per-ego kernel against its two oracles and of both top-k searches against
# exhaustive selection (internal/ego). `go test` accepts
# one -fuzz pattern per invocation, hence one run per target. CI runs this
# non-gating, like bench-smoke; crank -fuzztime up for a real session.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeMaintainerState -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeWAL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ego -run '^$$' -fuzz FuzzEgoKernel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ego -run '^$$' -fuzz FuzzSearch -fuzztime $(FUZZTIME)

# Coverage profile over every package (atomic mode so it composes with
# -race); CI uploads coverage.out as a workflow artifact.
cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Run the query-serving daemon on :8080 (README.md has the curl walkthrough).
serve:
	$(GO) run ./cmd/egobwd -addr :8080

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet (the CI lint step). Uses a PATH-installed
# staticcheck when available, else fetches the pinned version via `go run`
# (needs network; CI always takes this path).
STATICCHECK_VERSION ?= 2025.1.1
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; fi

# The one size ROADMAP.md quotes: non-test Go lines outside benchmark/.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
