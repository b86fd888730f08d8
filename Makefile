.PHONY: all check test fuzz fuzz-quick bench bench-json bench-quick bench-codecs perf-gate maybe-perf-gate storm-bench paging-bench traces dict clean

all:
	dune build

# the tier-1 gate: everything must compile and the test suite must pass.
# fuzz-quick runs first as a fast fail-early pass over every decoder;
# maybe-perf-gate (opt-in via PERF_GATE=1) compares stage wall times
# against the committed baseline BEFORE bench-codecs overwrites it;
# bench-codecs proves every registered codec encodes+decodes and tracks
# the per-stage matrix; the suite itself (one `dune runtest`) then
# includes the full 10k-iteration fuzz layer, the differential tests
# and the golden trace replays; storm-bench gates the update channel's
# savings and paging-bench runs the demand-paged execution sweep and
# holds its fault/stall/ratio ceilings (both deterministic — modelled
# latencies and cycles only — so they run unconditionally). The daemon
# is tested over loopback in the suite (test/test_net.ml, concurrent
# clients included) and timed by `python3 perfbench/run.py`, not here.
check: fuzz-quick maybe-perf-gate bench-codecs storm-bench paging-bench
	dune build && dune runtest

# off by default (timings on shared runners are noisy); opt in with
#   PERF_GATE=1 make check
maybe-perf-gate:
	@if [ "$(PERF_GATE)" = "1" ]; then $(MAKE) perf-gate; else \
	  echo "perf-gate: skipped (set PERF_GATE=1 to enable)"; fi

# regenerate the per-stage matrix and compare it against the committed
# BENCH_compressor.json: fails if any stage's wall time regressed >25%
# (beyond a 2 ms noise floor). The fresh run is kept next to the
# baseline for inspection; bench-codecs is what refreshes the baseline.
perf-gate:
	dune build bench/perf_gate.exe
	dune exec bench/main.exe -- --quick --codecs-json > BENCH_compressor.new.json
	dune exec bench/perf_gate.exe -- BENCH_compressor.json BENCH_compressor.new.json
	@rm -f BENCH_compressor.new.json

# replay the committed update-storm trace with the update channel on
# and off, write BENCH_storm.json, and gate the savings on the two
# replays (mccsim storm exits 1 on a miss): delta delivery must stay at
# or under 40% of full-redelivery bytes on the update ops, with zero
# client-side decode-verification failures. Deterministic (modelled
# latencies), so it runs in CI without a noise opt-out.
storm-bench:
	dune build bin/mccsim.exe
	dune exec bin/mccsim.exe -- storm traces/update_storm.trace \
	  --json --out BENCH_storm.json

# demand-paged execution sweep: run the profiled corpus under the pager
# in source order vs profile-guided hot layout across resident budgets
# (50/25/12% of the decompressed image), write the fault/stall/ratio
# matrix to BENCH_paging.json, and gate the computed values (the sweep
# prints its verdict to stderr and exits 1 on a miss) — chunked bytes
# must be exactly invariant under reorder, the hot layout must strictly
# reduce total faults on every point, and the 25%-budget stall overhead
# stays under its pinned ceiling. Modelled cycles only: deterministic,
# so it runs unconditionally in `make check`.
paging-bench:
	dune build bench/main.exe
	dune exec bench/main.exe -- --paging-json > BENCH_paging.json

# regenerate the golden scenario trace corpus (only needed when the
# generators or the catalog change; the replays of these files are
# regression-checked by dune runtest)
traces:
	dune build bin/mccsim.exe
	for s in steady flash-crowd corruption-burst mixed-profiles paging; do \
	  dune exec bin/mccsim.exe -- record --scenario $$s --catalog quick \
	    --events 400 --seed 42 --out traces/$$(echo $$s | tr - _).trace; \
	  dune exec bin/mccsim.exe -- replay traces/$$(echo $$s | tr - _).trace \
	    > traces/$$(echo $$s | tr - _).report; \
	done
	dune exec bin/mccsim.exe -- record --scenario update-storm \
	  --catalog versioned --events 400 --seed 42 \
	  --out traces/update_storm.trace
	dune exec bin/mccsim.exe -- replay traces/update_storm.trace \
	  > traces/update_storm.report

# regenerate the committed corpus-trained shared dictionary
# (lib/codec/shared_dict_data.ml); the digest-pin test fails when the
# corpus and the committed bytes drift apart
dict:
	dune exec bin/mccdict.exe

test:
	dune runtest

# bounded-seed fuzz pass (~12s): 1500 mutations per untrusted-input
# decoder, same seeds every run
fuzz-quick:
	FUZZ_ITERS=1500 dune exec test/test_fuzz.exe

# full fuzz pass: FUZZ_ITERS mutations per decoder (default 10000)
fuzz:
	dune exec test/test_fuzz.exe

bench:
	dune exec bench/main.exe -- --quick --no-bechamel

bench-json:
	dune exec bench/main.exe -- --quick --json

# compressor-timing slice only: Dict.build in full-scan / incremental /
# parallel modes on the gcc-like point, printed to stdout (the committed
# BENCH_compressor.json is the codec matrix bench-codecs writes)
bench-quick:
	dune exec bench/main.exe -- --quick --compressor-json

# per-stage codec matrix: bytes-in/bytes-out/wall time for every stage
# of every registered codec on the smallest and largest corpus points,
# written to BENCH_compressor.json for cross-PR tracking
bench-codecs:
	dune exec bench/main.exe -- --quick --codecs-json > BENCH_compressor.json
	@cat BENCH_compressor.json

clean:
	dune clean
