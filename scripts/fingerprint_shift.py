"""How far one fingerprint file moved from another, key family by key family.

    PYTHONPATH=src python scripts/fingerprint_shift.py OLD.npz NEW.npz

The files are written by ``scripts/make_fingerprint.py``; a key's family is
its first path part (``modal``, ``literal``, ``sd``).  For each family the
script prints how many keys are bit-identical (same shape, ``np.array_equal``),
the largest shift max|new - old| / max|old| over its keys with the key where
it occurs, and every run whose ``nc_step`` changed.  Keys held by one file only
are listed.  The exit code is 0 when both files hold the same keys and every
key is bit-identical, and 1 otherwise.
"""

from __future__ import annotations

import sys

import numpy as np


def relative_shift(old: np.ndarray, new: np.ndarray) -> float:
    """max|new - old| / max|old|: 0 when bit-identical, inf on a shape change or
    a move from an all-zero key."""
    if old.shape != new.shape:
        return np.inf
    if np.array_equal(old, new, equal_nan=True):
        return 0.0
    scale = np.max(np.abs(old), initial=0.0)
    return np.max(np.abs(new - old)) / scale if scale > 0 else np.inf


def compare(old: dict, new: dict) -> dict:
    """Per family: keys, identical, (largest shift, its key) and the changed
    nc_step values as {run: (old, new)}; plus the keys held by one file only."""
    families = {}
    for key in sorted(old.keys() & new.keys()):
        fam = families.setdefault(key.split("/")[0], {
            "keys": 0, "identical": 0, "largest": (0.0, None), "nc_step": {}})
        shift = relative_shift(old[key], new[key])
        fam["keys"] += 1
        fam["identical"] += shift == 0.0
        if shift > fam["largest"][0]:
            fam["largest"] = (shift, key)
        if key.endswith("/nc_step") and shift != 0.0:
            fam["nc_step"][key[:-len("/nc_step")]] = (int(old[key]), int(new[key]))
    return {"families": families, "only_old": sorted(old.keys() - new.keys()),
            "only_new": sorted(new.keys() - old.keys())}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with np.load(argv[1]) as a, np.load(argv[2]) as b:
        result = compare(dict(a), dict(b))
    same = not (result["only_old"] or result["only_new"])
    for name, fam in result["families"].items():
        shift, key = fam["largest"]
        print(f"{name}: {fam['identical']}/{fam['keys']} keys bit-identical; largest shift "
              f"{shift:.3g}" + (f" ({key})" if key else "") + "; nc_step "
              + (", ".join(f"{run} {a} -> {b}" for run, (a, b) in fam["nc_step"].items())
                 or "unchanged"))
        same &= fam["identical"] == fam["keys"]
    for side in ("only_old", "only_new"):
        if result[side]:
            print(f"{side.replace('_', ' in ')}: " + ", ".join(result[side]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
