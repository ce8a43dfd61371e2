#!/usr/bin/env python3
"""Data-parallel BCPNN training over the repro.comm transports.

Demonstrates the property that makes BCPNN attractive on HPC systems
(Section II-B): learning is local, so data-parallel training only has to
allreduce the probability-trace statistics — one packed allreduce per batch.
The example trains the same hidden layer serially and with 2 and 4 real
ranks (in-process threads by default, OS processes over loopback sockets
with ``--transport tcp``), verifies the learned traces are equivalent, and
reports the communication volume per rank count.

Run:  python examples/distributed_training.py [--transport thread|tcp]
"""

import argparse

from repro.experiments import run_distributed_equivalence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        choices=["thread", "tcp"],
        default="thread",
        help="repro.comm transport carrying the per-batch allreduce",
    )
    args = parser.parse_args()
    result = run_distributed_equivalence(
        rank_counts=(1, 2, 4), epochs=2, batch_size=256, seed=5, transport=args.transport
    )
    print(result["table"])
    if result["all_equivalent"]:
        print(
            f"\nAll rank counts reproduce the serial traces on the {args.transport} "
            "transport: data-parallel BCPNN is exact."
        )
    else:
        print("\nWARNING: trace deviation exceeded tolerance — investigate before scaling out.")


if __name__ == "__main__":
    main()
