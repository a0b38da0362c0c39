#!/usr/bin/env python3
"""Summarize the randomized decomposition and perturbation corpora.

For a given seed the script builds the same operator corpora used by the
verification suites, runs the analyses on every instance, and prints a
compact report: how many instances were certified, which strict orders
occurred, and how often the perturbation bound is attained with equality.

Run:  python3 scripts/corpus_report.py [--seed N] [--per-kind N] [--count N]
"""

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from misolab import algebraic_decompose, perturbation_analysis, strict_order  # noqa: E402
from misolab.suites import decomposition_corpus, perturbation_corpus  # noqa: E402


def report_decomposition(seed, per_kind):
    corpus = decomposition_corpus(seed, per_kind=per_kind)
    print(f"decomposition corpus: {len(corpus)} instances (seed {seed})")
    certified_orders = Counter()
    refusals = Counter()
    for inst in corpus:
        dec = algebraic_decompose(inst.operator, eigen_hints=inst.eigen_hints)
        if dec.certified:
            measured = strict_order(inst.operator, m_max=dec.predicted_strict_order)
            tag = "ok" if measured.strict and measured.m == dec.predicted_strict_order \
                else "MISMATCH"
            certified_orders[(inst.kind, dec.predicted_strict_order, tag)] += 1
        else:
            reason = dec.failures[0].split(":")[0] if dec.failures else "unknown"
            refusals[(inst.kind, reason)] += 1
    print("  certified (kind, order, check):")
    for key, n in sorted(certified_orders.items(), key=str):
        print(f"    {key}: {n}")
    print("  refused (kind, first reason):")
    for key, n in sorted(refusals.items(), key=str):
        print(f"    {key}: {n}")


def report_perturbation(seed, count):
    corpus = perturbation_corpus(seed, count=count)
    print(f"\nperturbation corpus: {len(corpus)} pairs (seed {seed})")
    outcomes = Counter()
    for inst in corpus:
        res = perturbation_analysis(inst.base, inst.nilpotent)
        actual = strict_order(inst.base + inst.nilpotent, m_max=res.m_bound)
        attained = actual.strict and actual.m == res.m_bound
        outcomes[(inst.kind, res.m_a, res.nu, res.m_bound,
                  "strict" if res.strict else "slack",
                  "agrees" if attained == res.strict else "DISAGREES")] += 1
    print("  (kind, m_A, nu, bound, prediction, measurement):")
    for key, n in sorted(outcomes.items(), key=str):
        print(f"    {key}: {n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-kind", type=int, default=20,
                    help="instances per decomposition corpus kind")
    ap.add_argument("--count", type=int, default=30,
                    help="number of perturbation pairs")
    args = ap.parse_args()
    report_decomposition(args.seed, args.per_kind)
    report_perturbation(args.seed, args.count)


if __name__ == "__main__":
    main()
