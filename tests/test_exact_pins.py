"""The exact layer's outputs pinned by digest: `amdl measure`'s values, the
disagreement profiles, the worst member loss, mixtures' worst losses and the
radius filter's survivors, on instances whose numerators fit machine
integers, on one whose numerators do not, and on classes whose varying point
counts sit at the edges of the level search's id widths."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import amdl
from amdl import (HypothesisClass, LabeledDistribution, MDLInstance,
                  RandomizedHypothesis, save_instance)
from amdl.active import _within_radius
from amdl.cli import main as cli_main
from amdl.complexity import _profile_nums, star_number_unqualified, vc_dimension
from amdl.core import instance_from_dict

from test_complexity import _plus_point as _plus_point_class


def _plus_point(inst: MDLInstance) -> MDLInstance:
    """`inst` on `test_complexity._plus_point`'s class, one more point that
    member 0 alone labels +1, the point of mass 1/64 and eta 1/2."""
    dists = [LabeledDistribution([v * Fraction(63, 64) for v in d.marginal] + [Fraction(1, 64)],
                                 list(d.eta_plus) + [Fraction(1, 2)])
             for d in inst.distributions]
    return MDLInstance(_plus_point_class(inst.hypothesis_class), dists)


def _wide() -> MDLInstance:
    """An instance read from a document whose float pmfs put every exact
    numerator far beyond 64 bits (a marginal of 1e-20 alone needs a 2^119
    denominator)."""
    rng = np.random.default_rng(5)
    m, k = 9, 3
    hyps = [[int(v) for v in row] for row in rng.choice([-1, 1], size=(40, m))]
    hyps = [list(r) for r in dict.fromkeys(map(tuple, hyps))]
    dists = []
    for _ in range(k):
        w = rng.random(m)
        w[0] = 1e-20
        dists.append({"marginal": (w / w.sum()).tolist(), "eta_plus": rng.random(m).tolist()})
    inst = instance_from_dict({"m": m, "hypotheses": hyps, "distributions": dists})
    assert max(d._mden for d in inst.distributions) >= 1 << 64
    return inst


PINNED = {
    "random(10,128,4)": lambda: amdl.gen_random(10, 128, 4, seed=11),
    "random(10,256,4)": lambda: amdl.gen_random(10, 256, 4, seed=12),
    "random(12,512,3)": lambda: amdl.gen_random(12, 512, 3, seed=13),
    "star-lb(2,8,1,3)": lambda: amdl.gen_star_lb(2, 8, 1, 3),               # 16 varying points
    "star-lb(2,8,1,3)+1": lambda: _plus_point(amdl.gen_star_lb(2, 8, 1, 3)),   # 17
    "star-lb(2,16,1,3)": lambda: amdl.gen_star_lb(2, 16, 1, 3),             # 32
    "star-lb(2,16,1,3)+1": lambda: _plus_point(amdl.gen_star_lb(2, 16, 1, 3)),  # 33
    "wide": _wide,
}

DIGESTS = {
    "random(10,128,4)": "ad484f36c0abb8dcfd7ad4c7b71bf848513a2dd1c568a606d3c6f22c18c24c71",
    "random(10,256,4)": "7dcb82713f2030f3f771d3ae0987a12e249e0bc4f127c85e3c502a1874169c7a",
    "random(12,512,3)": "6805661834e8461c811ed6f0a234fd9a1399f48ed0005dd76b0b97d4ee32f94e",
    "star-lb(2,8,1,3)": "5d9e3f71504ae39ddd8db48d7160f768eee81189ff14faa1057ee8d96f8e6a52",
    "star-lb(2,8,1,3)+1": "8662f2c901a74a03cf1e5d4cacd1c5109cbf2645c06c49c0266645d960b4d385",
    "star-lb(2,16,1,3)": "8bba6e310039124794234a7d10e7a82db1b3c6f5c2842b22257c96ff17def33e",
    "star-lb(2,16,1,3)+1": "9ecc2a173702004e7002dcd1858a729c007ef00022410f314f74eff34fa88911",
    "wide": "4c7b1a8953428cb15ecfc41e43d76ba7cacc5be6573320b9c8dbb39f5bf71c5e",
}


def _mixtures(cls: HypothesisClass) -> list[RandomizedHypothesis]:
    n = len(cls)
    return [RandomizedHypothesis(cls, [n - 1]),
            RandomizedHypothesis(cls, range(0, n, 3)),
            RandomizedHypothesis(cls, {i: i + 1 for i in range(1, n, max(1, n // 7))})]


def _lines(inst: MDLInstance, tmp_path) -> list[str]:
    """Every pinned value of `inst`, one per line."""
    path, out = tmp_path / "inst.json", tmp_path / "measure.txt"
    save_instance(inst, str(path))
    assert cli_main(["measure", "--instance", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cls = inst.hypothesis_class
    ref = amdl.best_nu(inst)[0]
    for d in inst.distributions:
        radii, masses = _profile_nums(d, cls, ref)
        lines.append(" ".join(f"{Fraction(r, d._mden)}:{Fraction(m, d._mden)}"
                              for r, m in zip(radii, masses)))
    lines.append(f"worst_member_loss={inst.worst_member_loss()}")
    V = cls.full_version_space()
    for mix in _mixtures(cls):
        lines.append(f"worst_loss_exact={inst.worst_loss_exact(mix)}")
        for bound in (Fraction(1, 20), Fraction(1, 5), Fraction(1, 2)):
            lines.append(f"within {bound}: {_within_radius(inst, V, mix, bound)}")
    for cap in (8, 9, 16, 17, 32, 33):
        lines.append(f"cap {cap}: vc={vc_dimension(cls, cap)} "
                     f"star_unqualified={star_number_unqualified(cls, cap)}")
    return lines


@pytest.mark.parametrize("name", PINNED)
def test_exact_values_pinned(name, tmp_path):
    text = "\n".join(_lines(PINNED[name](), tmp_path)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
