#!/usr/bin/env python3
"""End-to-end demonstration: triple -> surface -> triple.

Manufactures a solution of the chosen natural system, reconstructs the
surface by frame transport, analyzes the sampled immersion back into frame
functions, canonicalizes, and prints every diagnostic along the way.

Usage: python scripts/roundtrip_demo.py
       [--fixture jet|constant|goursat-degenerate|goursat-hyperbolic]
       [--nodes 65] [--out DIR]
"""

import argparse
import os

import numpy as np

from minksurf import io
from minksurf.analysis import Immersion, invariants
from minksurf.canonical import canonicalize
from minksurf.fixtures import FIXTURE_NAMES, make_triple_fixture
from minksurf.frames import reconstruct
from minksurf.natural import residual


def main():
    ap = argparse.ArgumentParser()
    # every triple fixture; cylinder is an immersion, not a triple
    ap.add_argument("--fixture", default="jet", choices=[n for n in FIXTURE_NAMES if n != "cylinder"])
    ap.add_argument("--nodes", type=int, default=65)
    ap.add_argument("--out", default=None, help="optional directory for CSV/VTK artifacts")
    args = ap.parse_args()

    t = make_triple_fixture(args.fixture, nodes=args.nodes)
    rep = residual(t)
    print(f"fixture {args.fixture}: natural-system residual {rep.interior_max_abs:.3e}")

    bundle = reconstruct(t)
    for key, val in bundle.diagnostics.items():
        print(f"  {key}: {val:.3e}")

    m = Immersion(bundle.grid, bundle.points)
    inv = invariants(m)
    su, sv = m.grid.interior(2)
    funcs = inv.functions
    rec = max(
        float(np.max(np.abs(funcs.lambda1.values - t.lam.values)[su, sv])),
        float(np.max(np.abs(funcs.mu1.values - t.mu.values)[su, sv])),
        float(np.max(np.abs(funcs.nu.values - t.nu.values)[su, sv])),
    )
    print(f"  triple recovery error: {rec:.3e}")
    print(f"  classification: {inv.classification.value}")

    canon = canonicalize(m)
    print("  canonicalization:")
    for key, val in canon.diagnostics.items():
        print(f"    {key}: {val if isinstance(val, str) else f'{val:.3e}'}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.write_triple_bundle(t, os.path.join(args.out, "triple"))
        io.write_immersion_csv(m, os.path.join(args.out, "immersion.csv"))
        io.write_vtk_structured(
            os.path.join(args.out, "surface.vtk"), m,
            n1=bundle.frames[..., 2, :], n2=bundle.frames[..., 3, :],
        )
        io.write_report(bundle.diagnostics, os.path.join(args.out, "diagnostics.json"))
        print(f"  artifacts written to {args.out}/")


if __name__ == "__main__":
    main()
