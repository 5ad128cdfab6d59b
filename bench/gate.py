"""Correctness gate: every output of a pipeline pass against a reference.

Integer counters and integer-only files (compared by SHA-256 and size) must
match exactly.  Report floats use the tolerances of the frozen-anchor
tests: 1e-9 relative, and 1e-6 for the mean of the non-squarefull
g-descriptor, so a legitimate reordering of a summation is not a failure.
References were recorded from the seed code by ``record_reference.py``.

Synthetic labels depend on the seed, so ``noncyclic-report`` is also
checked for any seed against invariants (n_ideals == x, since every
integer <= x is the norm of exactly one synthetic ideal) and against an
independent numpy census of class and irreducible counts.
"""

from __future__ import annotations

import json
import math

import numpy as np

from irrcensus import abelian, synth

REL_TOL = 1e-9
ABS_TOL = 1e-12
#: The non-squarefull g-mean is a sum of ~x terms of alternating sign; the
#: frozen-anchor test holds it to 1e-6.
LOOSE_PATHS = {("report", "g_mean_table", 1, "measured"): 1e-6}


def compare(got, want, path=()) -> list[str]:
    """Mismatches between two JSON-like values, one line each."""
    where = "/".join(str(p) for p in path) or "<root>"
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, float) or (isinstance(got, float) and isinstance(want, int)):
        if not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        rel = LOOSE_PATHS.get(path, REL_TOL)
        if math.isclose(got, want, rel_tol=rel, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != {want!r} (rel tol {rel:g})"]
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        if set(got) != set(want):
            out.append(f"{where}: keys {sorted(set(got) ^ set(want))} differ")
        for k in sorted(set(got) & set(want)):
            out.extend(compare(got[k], want[k], path + (k,)))
        return out
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{where}: expected a list of length {len(want)}"]
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out.extend(compare(a, b, path + (i,)))
        return out
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def comparable(facts: dict) -> dict:
    """Facts in the form stored in the reference (the report parsed)."""
    out = dict(facts)
    if "report_json" in out:
        out["report"] = json.loads(out.pop("report_json"))
    return out


def synth_oracle(group_orders, seed: int, x: int) -> dict:
    """Class counts and irreducible count of all ideals of norm <= x in the
    synthetic stream, by sieving class sums over prime powers with numpy
    (no DFS, no nu machinery)."""
    group = abelian.group_from_orders(group_orders)
    ordering = abelian.canonical_ordering(group)
    mods = group.invariant_factors
    h = group.h
    davenport = abelian.structural_constants(group).davenport
    coords = np.zeros((len(mods), x + 1), dtype=np.int64)
    omega = np.zeros((h, x + 1), dtype=np.int64)
    model = synth.SynthModel(group=group, seed=seed)
    for site in synth.synth_sites(model, x):
        element = ordering.elements[site.class_index - 1]
        q = site.norm
        while q <= x:
            for axis, v in enumerate(element):
                if v:
                    coords[axis, q::q] += v
            omega[site.class_index - 1, q::q] += 1
            q *= site.norm
    code = np.zeros(x + 1, dtype=np.int64)
    for axis, d in enumerate(mods):
        code = code * d + coords[axis] % d
    lut = np.zeros(h, dtype=np.int64)
    for element, index in ordering.index_of.items():
        c = 0
        for v, d in zip(element, mods):
            c = c * d + v
        lut[c] = index - 1
    cls = lut[code[1:]]
    principal = np.flatnonzero(cls == 0) + 1
    base = davenport + 2
    key = np.zeros(principal.size, dtype=np.int64)
    for i in reversed(range(h)):
        key = key * base + np.minimum(omega[i, principal], base - 1)
    type_keys = []
    for tv in abelian.structural_constants(group).types:
        k = 0
        for t in reversed(tv.t):
            k = k * base + t
        type_keys.append(k)
    irreducible = np.isin(key[principal > 1], np.array(type_keys, dtype=np.int64))
    return {
        "class_counts": np.bincount(cls, minlength=h).tolist(),
        "irreducible_count": int(irreducible.sum()),
    }


def check_noncyclic(facts: dict, p: dict, oracle: dict) -> list[str]:
    c = facts["counters"]
    report = facts["report"]
    out = []
    if c["n_ideals"] != p["x"]:
        out.append(f"n_ideals {c['n_ideals']} != x {p['x']}")
    if sum(c["nu_counts"].values()) != c["n_principal"] or c["class_counts"][0] != c["n_principal"]:
        out.append("n_principal disagrees with nu_counts or class_counts")
    for key in ("n_ideals", "n_principal", "irreducible_count"):
        if report[key] != c[key]:
            out.append(f"report {key} {report[key]} != sweep {c[key]}")
    out.extend(compare(c["class_counts"], oracle["class_counts"], ("oracle", "class_counts")))
    if c["irreducible_count"] != oracle["irreducible_count"]:
        out.append(
            f"irreducible_count {c['irreducible_count']} != oracle {oracle['irreducible_count']}"
        )
    return out


class Gate:
    """Checks the facts of one workload at one size and seed."""

    def __init__(self, workload: str, params: dict, seed: int, reference: dict):
        self.workload = workload
        self.params = params
        self.seed = seed
        if workload == "noncyclic-report":
            self.reference = reference.get("seeds", {}).get(str(seed))
            self._oracle = None
        else:
            self.reference = reference

    def check(self, facts: dict) -> list[str]:
        got = comparable(facts)
        out = []
        if self.workload == "noncyclic-report":
            if self._oracle is None:
                self._oracle = synth_oracle(self.params["group"], self.seed, self.params["x"])
            out.extend(check_noncyclic(got, self.params, self._oracle))
        if self.reference is not None:
            out.extend(compare(got, self.reference))
        return out
