#!/usr/bin/env python3
"""Residual and round-trip convergence under grid refinement.

Runs the built-in fixtures over a 33/65/129 refinement ladder and prints the
interior residual, compatibility residual, and observed orders.  A good run
shows order ~2 for the degenerate Goursat march and for the characteristic
sweep (1.73 and 1.87 on the default ladder; lower on coarser grids, which
are not yet asymptotic), and flat near-machine numbers for the exact
constant fixture.  The two Goursat fixtures also run the round trip and
print the curvature-consistency orders.

Usage: python scripts/convergence_study.py [--grids 33 65 129]
"""

import argparse

import numpy as np

from minksurf.analysis import Immersion, invariants
from minksurf.fixtures import (
    constant_triple,
    goursat_degenerate_triple,
    goursat_hyperbolic_triple,
)
from minksurf.frames import coefficient_matrices, compatibility_residual, reconstruct
from minksurf.natural import residual


def orders(seq):
    return [np.log2(seq[i] / seq[i + 1]) if seq[i + 1] > 0 else float("inf") for i in range(len(seq) - 1)]


def study(name, make_triple, grids, with_roundtrip=False):
    print(f"\n== {name} ==")
    res, compat, kdiff = [], [], []
    for n in grids:
        t = make_triple(n)
        r = residual(t).interior_max_abs
        c = compatibility_residual(coefficient_matrices(t)).interior_max_abs()
        line = f"  n={n:4d}  residual {r:.4e}  compat {c:.4e}"
        if with_roundtrip:
            bundle = reconstruct(t, force=True)
            rep = invariants(Immersion(bundle.grid, bundle.points))
            su, sv = bundle.grid.interior(2)
            d = float(np.max(np.abs(rep.K_metric.values - rep.K_frame.values)[su, sv]))
            kdiff.append(d)
            line += f"  |K_metric - K_frame| {d:.4e}"
        res.append(r)
        compat.append(c)
        print(line)
    if len(grids) > 1 and res[-1] > 0:
        print(f"  residual orders: {['%.2f' % o for o in orders(res)]}")
    if with_roundtrip and kdiff and kdiff[-1] > 0:
        print(f"  curvature-consistency orders: {['%.2f' % o for o in orders(kdiff)]}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grids", type=int, nargs="+", default=[33, 65, 129])
    args = ap.parse_args()
    study("constant (exact solution)", constant_triple, args.grids)
    study("goursat-degenerate (nu = 1 + u)", goursat_degenerate_triple, args.grids, with_roundtrip=True)
    study("goursat-hyperbolic (jet edge data)", goursat_hyperbolic_triple, args.grids, with_roundtrip=True)


if __name__ == "__main__":
    main()
