# Build/test/profile pipeline. The committed PGO profile lives at
# cmd/tltsim/default.pgo, where the Go toolchain picks it up
# automatically (-pgo=auto is the default) for every build of tltsim;
# `make pgo` regenerates it from three representative workloads (the
# fig5 closed-loop smoke, the fig6 RoCE smoke and the streaming
# scale-sweep smoke — together they cover the wheel drain, the switch
# datapath with its INT stamping, the TCP and RoCE queue-pair transports
# and the tick paths that dominate CPU). The sidecar default.pgo.meta records
# how many PR entries CHANGES.md held at generation time; `make pgo-check`
# (and CI) fail once the profile is more than PGO_MAX_AGE PRs stale.

GO ?= go
PGO := cmd/tltsim/default.pgo
PGO_META := cmd/tltsim/default.pgo.meta
PGO_MAX_AGE := 3
# PR entries of CHANGES.md: an entry is several lines, its first begins "PR <n>".
PGO_ENTRIES := grep -c '^PR [0-9]' CHANGES.md

.PHONY: all build test benchmark ab mutants pgo pgo-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark (BENCHMARK.json, bench/README.md): all four
# workloads, end-to-end metrics and the per-layer ledger.
benchmark:
	bash bench/run.sh -workload all

# Paired A/B of one benchmark workload between two commits, ten
# interleaved pairs and the README's verdict rule (scripts/ab.sh):
# make ab PARENT=HEAD~1 CHANGE=HEAD W=leafspine-roce
ab:
	bash scripts/ab.sh $(PARENT) $(CHANGE) --workload $(W)

# The mutant suite (scripts/mutate.sh): each testdata/mutants/*.patch is a
# seeded bug that the tests its header names must catch. Prints each
# mutant killed or survived; fails on a survivor not marked equivalent.
mutants:
	bash scripts/mutate.sh

# Capture CPU profiles from the three smoke workloads, merge
# them into the committed default.pgo, and stamp the staleness sidecar.
# Every capture runs at the default one shard, like the benchmark and a
# default tltsim run: a sharded capture would weight mailbox code that
# those runs never execute.
# Commit both files after running this. (Iterating is fine: the capture
# runs already benefit from the previous profile; Go PGO is stable
# under that feedback.)
# The captures go to a mktemp -d directory (honours TMPDIR), removed
# on the way out, so the recipe needs no writable /tmp.
pgo:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -x; \
	$(GO) run ./cmd/tltsim -exp fig5 -bg 60 -seeds 1 -points 2 -procs 1 \
		-cpuprofile "$$dir/fig5.pb.gz"; \
	$(GO) run ./cmd/tltsim -exp fig6 -bg 32 -seeds 1 -procs 1 \
		-cpuprofile "$$dir/fig6.pb.gz"; \
	$(GO) run ./cmd/tltsim -exp scale-sweep -bg 25000 -points 1 -seeds 1 -procs 1 \
		-cpuprofile "$$dir/scale.pb.gz"; \
	$(GO) tool pprof -proto "$$dir/fig5.pb.gz" "$$dir/fig6.pb.gz" "$$dir/scale.pb.gz" > $(PGO)
	echo "changes_entries=$$($(PGO_ENTRIES))" > $(PGO_META)
	@echo "wrote $(PGO) + $(PGO_META); commit both"

# Fail when the committed profile has fallen more than PGO_MAX_AGE PRs
# behind CHANGES.md (each PR appends one entry there).
pgo-check:
	@cur=$$($(PGO_ENTRIES)); \
	gen=$$(sed -n 's/^changes_entries=//p' $(PGO_META) 2>/dev/null); \
	if [ -z "$$gen" ]; then \
		echo "$(PGO_META) missing or invalid; run 'make pgo' and commit $(PGO) + $(PGO_META)" >&2; \
		exit 1; \
	fi; \
	age=$$((cur - gen)); \
	if [ $$age -gt $(PGO_MAX_AGE) ]; then \
		echo "$(PGO) is $$age PRs stale (limit $(PGO_MAX_AGE)); run 'make pgo' and commit the refreshed profile" >&2; \
		exit 1; \
	fi; \
	echo "ok: $(PGO) is $$age PR(s) old (limit $(PGO_MAX_AGE))"
