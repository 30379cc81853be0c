#!/bin/sh
# Host-speed regression gate: re-measure simulator event throughput and
# fail if it regressed more than 20% below the committed baseline.
# Also gates the parallel sweep scenarios: on hosts with >= 4 cores the
# "@4 domains" sweep must reach at least 2.5x the serial sweep's
# aggregate events/s (on smaller hosts the floor is skipped — the sweep
# cannot physically scale past the core count).
# Also gates scheduler aggregation: the "10k flows 64B" scenario pair
# (sched=fifo vs sched=aggreg) must show >= 2x simulated goodput with
# aggregation on. Both finish times are simulated, so this gate is
# deterministic and never skipped.
# Also gates the zero-copy long-message path: the "sisci 1MB rendezvous
# zero-copy" scenario (warm pin-down cache) must beat the staged
# "sisci 1MB ping-pong" by >= 1.2x in simulated one-way bandwidth.
# Deterministic for the same reason; the cold-cache scenario rides
# along as a host-speed line only.
# Also gates per-message allocation: the "10k flows 64B sched=aggreg"
# scenario must allocate at most 256 words straight on the major heap
# per message (major minus promoted words; one 16 KiB buffer per message
# would be 2049). Deterministic, never skipped; both "10k flows" lines
# record the figure as major_words_per_msg.
#
# Usage: bench/check_simspeed.sh [baseline.json]
# Refresh the baseline with: dune exec bench/main.exe -- simspeed --json
set -eu
cd "$(dirname "$0")/.."
baseline="${1:-BENCH_simspeed.json}"
if [ ! -f "$baseline" ]; then
  echo "check_simspeed: baseline '$baseline' not found" >&2
  echo "check_simspeed: generate one with: dune exec bench/main.exe -- simspeed --json" >&2
  exit 2
fi
exec dune exec bench/main.exe -- simspeed --baseline "$baseline"
