"""Point evaluation: frozen values and the one scalar check of its arguments.

``apply`` and ``apply_central_moment`` take one point x, and ``basis_matrix``
at one point gives the basis row there.  The FROZEN values below are exact:
any change that moves a single bit of a point value fails here, so a faster
point path must keep the arithmetic as it is.  The argument tests cover what
one point may be (an int, a float, a NumPy real scalar or a 0-d array, all
giving the same bits) and what is refused; ``basis_matrix`` takes an array of
points as a grid, so only the two point functions refuse one.
"""

import math

import numpy as np
import pytest

from pqbernstein.functions import make_function
from pqbernstein.operator_eval import (
    BasisVariant,
    SchurerConfig,
    apply,
    apply_central_moment,
    basis_matrix,
    required_domain,
)
from pqbernstein.pq_core import PQPair

# n: (ell, p, q, x); two operators take the Gauss path for f_fig: n = 40
# ((N+1, K+1) = (44, 559)) and the last, classic n = 60
CASES = {
    1: (0, 0.9, 0.8, 0.0),
    6: (2, 0.9, 0.8, 0.3),
    14: (2, 0.95, 0.9, 0.37),
    20: (1, 1.0, 0.7, 1.0),
    40: (3, 0.99, 0.95, 0.8125),
    60: (0, 1.0 - 1.0 / 61**2, 1.0 - 1.0 / 61, 0.5),
}

# FROZEN: float.hex() of K(e0; x), K(f_fig; x), K((t-x); x), K((t-x)^2; x) and
# then of every entry of the basis row at x, space separated, per (basis variant, n)
FROZEN = {
    ("normalized", 1): (
        ("0x1.ffffffff30d3cp-1", "0x1.8f82746008153p+0",
         "0x1.6253443526172p-2", "0x1.46912acf11691p-3"),
        "0x1.0000000000000p+0 0x0.0p+0",
    ),
    ("normalized", 6): (
        ("0x1.ffffffff30d39p-1", "0x1.a44cfa3230abap-1",
         "0x1.5d5041d1fd3bep-2", "0x1.696d1bc4b3334p-3"),
        "0x1.3d57a39611bbbp-3 0x1.2d0a0d06255fcp-2 0x1.1b9a3f0dbb6bep-2 0x1.5b86fb14a0e34p-3 "
        "0x1.2ff057a5c0aaep-4 0x1.8611f210d6b64p-6 0x1.6864938e465afp-8 0x1.b8d475af3ac50p-11 "
        "0x1.133033797f1ccp-14",
    ),
    ("normalized", 14): (
        ("0x1.ffffffff25955p-1", "0x1.317cc56cfcb45p-1",
         "0x1.421de73d47c8ap-2", "0x1.0c107020c498dp-3"),
        "0x1.19ffb1ee7f77fp-7 0x1.576b454bd2878p-5 0x1.a0b94f510c993p-4 0x1.4eaaca06b4dfap-3 "
        "0x1.8e7f5a22f05b1p-3 0x1.75522e3173c30p-3 0x1.1ce699d94fa50p-3 0x1.69b64ab45b192p-4 "
        "0x1.827c772009b0fp-5 0x1.5d1f969774f61p-6 0x1.0a17807a18ec3p-7 0x1.532137c950287p-9 "
        "0x1.62d4627c7a39cp-11 0x1.2729b05cccfccp-13 0x1.70e9a65a60149p-16 "
        "0x1.362a6588b34bep-19 0x1.08f23064c3883p-23",
    ),
    ("normalized", 20): (
        ("0x1.ffffffff443dbp-1", "0x1.48dc0e1d25fa9p+0",
         "0x1.9da691843e000p-14", "0x1.b90347c000000p-27"),
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000001p+0",
    ),
    ("normalized", 40): (
        ("0x1.ffffffff2a603p-1", "0x1.a1b944a8d75a9p-1",
         "0x1.0fdb33b3ce0c0p-3", "0x1.4db434532ff40p-6"),
        "0x1.505d31db23a38p-35 0x1.99e863eaa18e8p-31 0x1.fd0a285796bdap-28 "
        "0x1.ad5a14a0d8ddfp-25 0x1.14a495bfad908p-22 0x1.226aa1e61bdc2p-20 "
        "0x1.02a579a4571a4p-18 0x1.91e7e066a5d0bp-17 0x1.1600e8d743056p-15 "
        "0x1.5bbe8d4cc98a0p-14 0x1.8e18df614bdbbp-13 0x1.a52ddd30ae5b0p-12 "
        "0x1.9f1a520cd9f5ep-11 0x1.7fa5d23ba8221p-10 0x1.4e5ccb04835a9p-9 "
        "0x1.1419525af76c6p-8 0x1.b1c5757504defp-8 0x1.45475e3b86f4bp-7 0x1.d319d80f2a3fbp-7 "
        "0x1.41f32ee40fa85p-6 0x1.aafca632714cfp-6 0x1.10eee37af7abbp-5 0x1.50e108d49f0f7p-5 "
        "0x1.91feba99daaccp-5 0x1.d04455fb8af3bp-5 0x1.03af721b799ecp-4 0x1.198f8d42737dbp-4 "
        "0x1.27f8c647f8964p-4 0x1.2da58111a4fb7p-4 0x1.29fc9ea7bef57p-4 0x1.1d2638dd40efap-4 "
        "0x1.0809b9aec0aa0p-4 0x1.d86b2f390d5c2p-5 0x1.97683a70ba92cp-5 0x1.51a638f46c58dp-5 "
        "0x1.0bcbe56c143d9p-5 0x1.9426afb385333p-6 0x1.1fc9b8377210cp-6 0x1.7e3e7b997a7a7p-7 "
        "0x1.d13a1bb267e88p-8 0x1.f88bfae2d3eb3p-9 0x1.d08951a177207p-10 "
        "0x1.4990218df3e0dp-11 0x1.15fe5cd537ef9p-13",
    ),
    ("normalized", 60): (
        ("0x1.ffffffff276f9p-1", "0x1.39c69b8066770p+0",
         "0x1.28df6a1e20720p-7", "0x1.a24fd98e5f360p-8"),
        "0x1.7d54324cc76b9p-35 0x1.1cb32a100a14ap-30 0x1.a9f940b9b37cep-27 "
        "0x1.a9abcc9c60e33p-24 0x1.3f893a22e06a4p-21 0x1.804f1ffd1c761p-19 "
        "0x1.819d592584037p-17 0x1.4bf215d71a768p-15 0x1.f45ffaee58304p-14 "
        "0x1.4f5aa67b0fad9p-12 0x1.9499b2bce7a09p-11 0x1.bbaeec85b970dp-10 "
        "0x1.bdc6cb37ecf59p-9 0x1.9d17e58eef2fcp-8 0x1.630f048f30020p-7 0x1.1c68d766f322cp-6 "
        "0x1.aa5edb7d25494p-6 0x1.2c2039ce34e85p-5 0x1.8e0045a5da440p-5 0x1.f27e221d60831p-5 "
        "0x1.2788f09433fb6p-4 0x1.4c69a4a8bd832p-4 0x1.634f023077940p-4 0x1.6976873c7d467p-4 "
        "0x1.5e747dcf083c8p-4 0x1.4432941d51909p-4 0x1.1e6e4021cee39p-4 0x1.e3c6cf3ee2a37p-5 "
        "0x1.86c34031c6d65p-5 0x1.2e0cc1b52c0eap-5 0x1.bf073744a522ap-6 0x1.3cc1c5204d7d5p-6 "
        "0x1.ade3cf3c19e78p-7 0x1.175a7a8fe5810p-7 0x1.5b9e1cda101ebp-8 0x1.9e081a0689d2ep-9 "
        "0x1.d7c9c3aa23589p-10 0x1.01012f3497c58p-10 0x1.0b80f6cda4293p-11 "
        "0x1.09bd9dcf0ff04p-12 0x1.f7510401b3290p-14 0x1.c5bd4d9979019p-15 "
        "0x1.84bddb64cc4fcp-16 0x1.3be77a4cbbd38p-17 0x1.e5e037ec63db6p-19 "
        "0x1.60a717b07b1eep-20 0x1.e1a276a0797cep-22 0x1.344ce600c3f15p-23 "
        "0x1.705e6ea4a6c62p-25 0x1.98a8eefb8ce8cp-27 0x1.a251bdda62a33p-29 "
        "0x1.882323507f532p-31 0x1.4d828f51e8482p-33 0x1.fcb791a17b14dp-36 "
        "0x1.56bd19b908bd8p-38 0x1.8ff16bf32ed8fp-41 0x1.893a129963e17p-44 "
        "0x1.38f79689f217bp-47 0x1.7a5ae8ba2422bp-51 0x1.3507d8fce7abbp-55 "
        "0x1.0000000000003p-60",
    ),
    ("printed", 1): (
        ("0x1.ffffffff30d3cp-1", "0x1.8f82746008153p+0",
         "0x1.6253443526172p-2", "0x1.46912acf11691p-3"),
        "0x1.0000000000000p+0 0x0.0p+0",
    ),
    ("printed", 6): (
        ("0x1.084ee0a398d79p-4", "0x1.a77409403244fp-5",
         "0x1.9f7f957cc9be3p-6", "0x1.c955650b02ebap-7"),
        "0x1.09ba843644829p-7 0x1.f827791677c73p-7 0x1.07dcd30f686bcp-6 0x1.8f2ebf118080bp-7 "
        "0x1.dee56d2a3a8d0p-8 0x1.d46122a7df2b4p-9 0x1.6e6d9a4213c1fp-10 "
        "0x1.a5b1f698c53c5p-12 0x1.133033797f1ccp-14",
    ),
    ("printed", 14): (
        ("0x1.1178627dbab94p-8", "0x1.2d59cabb797cfp-9",
         "0x1.b73b79340ae11p-10", "0x1.a2f01328d3dd8p-11"),
        "0x1.3271700910e25p-16 0x1.752ff81547b69p-14 0x1.dcae33acc5d95p-13 "
        "0x1.a82cbf60a6e00p-12 0x1.268c5e10d1e55p-11 0x1.52c7eca86e4b6p-11 "
        "0x1.4e20a115888b7p-11 0x1.208ae63172e0bp-11 0x1.b97c141c042b8p-12 "
        "0x1.2c913c35dd707p-12 0x1.6b7b2b4b5c12dp-13 0x1.82db56720fa4bp-14 "
        "0x1.63ce9a8e5d82fp-15 0x1.11de800d74223p-16 0x1.4d66e6a63d1ccp-18 "
        "0x1.1f64de3615b15p-20 0x1.08f23064c3883p-23",
    ),
    ("printed", 20): (
        ("0x1.ffffffff443dbp-1", "0x1.48dc0e1d25fa9p+0",
         "0x1.9da691843e000p-14", "0x1.b90347c000000p-27"),
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000001p+0",
    ),
    ("printed", 40): (
        ("0x1.125bb0b70864bp-6", "0x1.45685a47db95fp-6",
         "0x1.84dd05fe6f1bcp-9", "0x1.16cf06d7f1af0p-11"),
        "0x1.3b5741a815e15p-48 0x1.8049ba3abb57bp-44 0x1.e20b6278c7d96p-41 "
        "0x1.9ed681e4cd890p-38 0x1.137916a98ad61p-35 0x1.2d0d0d7dfad48p-33 "
        "0x1.19ef63601b5dap-31 0x1.d1530b48aba56p-30 0x1.5954bc3b0ae65p-28 "
        "0x1.d420862802d4cp-27 0x1.2552aa793c52bp-25 0x1.5723f06ac17fep-24 "
        "0x1.79b91abbbbf2fp-23 0x1.89d8f83401746p-22 0x1.872933dd835d7p-21 "
        "0x1.73cceb8c3c2eap-20 0x1.5395b132d0f03p-19 0x1.2b132b9bf5671p-18 "
        "0x1.fd7dbcb834c1fp-18 0x1.a4ce0ac36efc4p-17 0x1.51c291f47e8f6p-16 "
        "0x1.07f700fda9869p-15 0x1.925e83351230dp-15 0x1.2b7ac24623d8ep-14 "
        "0x1.b3d14bf0fff39p-14 0x1.36451c03589d9p-13 0x1.b07f9a19fb69ap-13 "
        "0x1.27336e59b30e8p-12 0x1.8aa72bba581dcp-12 0x1.0248e30d2658bp-11 "
        "0x1.4aca6eb4284fcp-11 0x1.9e164726baf6cp-11 0x1.f9dc6e1c20f5dp-11 "
        "0x1.2cde5015a1712p-10 0x1.5b6b061580f4dp-10 0x1.83c9d185639c1p-10 "
        "0x1.9ffabe44d2128p-10 0x1.a9566a3b0fd9bp-10 0x1.99b418258be5fp-10 "
        "0x1.6d47cab9b8594p-10 0x1.25214cd6c7bbbp-10 0x1.936eb9621ffcbp-11 "
        "0x1.b0297c72611eap-12 0x1.15fe5cd537ef9p-13",
    ),
    ("printed", 60): (
        ("0x1.55dcb07bd4c12p-1", "0x1.9f81a3e22e839p-1",
         "0x1.ebdee2761b440p-8", "0x1.1a6ccb5fdfba0p-8"),
        "0x1.d9eef679dbb42p-36 0x1.61d69e3362ae5p-31 0x1.08c7fb5c3959ep-27 "
        "0x1.08bc426d5cbf8p-24 0x1.8dc67e4cc480ep-22 0x1.deec42bd51dffp-20 "
        "0x1.e13234dba8d2dp-18 0x1.9ee49243a18eep-16 0x1.394b2e8ce1d2cp-14 "
        "0x1.a4d8a9ec7eecap-13 0x1.fcf9b40397ea3p-12 0x1.17d245c4cba3cp-10 "
        "0x1.19f95765dcdd5p-9 0x1.06250011bc4dep-8 0x1.c435c57f3689dp-8 0x1.6b9870f6ce837p-7 "
        "0x1.11a44db7049a9p-6 0x1.82e5de33a167dp-6 0x1.01b5cf32e31a3p-5 0x1.4458574395aaap-5 "
        "0x1.828cafcace99dp-5 0x1.b520bf43c3673p-5 0x1.d5e195e8f75dfp-5 0x1.e0dae7a25bfd3p-5 "
        "0x1.d51a2ab742bd0p-5 0x1.b4c37c16d2787p-5 0x1.847c34cf24ef4p-5 0x1.4a5f8905fd3a2p-5 "
        "0x1.0ccc158057abdp-5 0x1.a2afad07787c3p-6 0x1.383f94ca2516ep-6 0x1.be173eaf64dfep-7 "
        "0x1.313db96704a2cp-7 0x1.90223cd9a4524p-8 0x1.f65932a28f3f7p-9 0x1.2de8a0631a890p-9 "
        "0x1.5b46a23bb2132p-10 0x1.7e0871c5b2002p-11 0x1.919d2eb504085p-12 "
        "0x1.931014f7f4772p-13 0x1.81b9b781fa1bbp-14 0x1.5f7d6de99461cp-15 "
        "0x1.3079e85ad3270p-16 0x1.f47901cb356fdp-18 0x1.85597c5b6bafdp-19 "
        "0x1.1df47b92d43f3p-20 0x1.8b4b74ba1c603p-22 0x1.002e594013311p-23 "
        "0x1.35fc6f1faee08p-25 0x1.5c5b5893bef72p-27 0x1.69517d420318bp-29 "
        "0x1.5749562a9a9dep-31 0x1.27fe132c6b75ap-33 0x1.c9d8376f3876cp-36 "
        "0x1.38e3d2d9a1da7p-38 0x1.72734d6be9213p-41 0x1.71a762658e399p-44 "
        "0x1.2aaad52b20b30p-47 0x1.6ea4585d24265p-51 0x1.302b2e2f6d853p-55 "
        "0x1.0000000000003p-60",
    ),
}


def operator(variant: str, n: int):
    ell, p, q, x = CASES[n]
    return SchurerConfig(n=n, ell=ell, basis_variant=BasisVariant(variant)), PQPair(p, q), x


def point_values(config, pq, x) -> tuple[list[float], np.ndarray]:
    lo, hi = required_domain(config, pq)
    values = [apply(config, pq, make_function(name, lo, hi), x) for name in ("e0", "f_fig")]
    values += [apply_central_moment(config, pq, x, order) for order in (1, 2)]
    return values, basis_matrix(config, pq, x)


@pytest.mark.parametrize("variant, n", list(FROZEN), ids=[f"{v}-n{n}" for v, n in FROZEN])
def test_point_values_are_frozen(variant, n):
    values, row = point_values(*operator(variant, n))
    want_values, want_row = FROZEN[variant, n]
    assert [v.hex() for v in values] == list(want_values)
    assert [float(b).hex() for b in row] == want_row.split()


@pytest.mark.parametrize("variant", ["normalized", "printed"])
@pytest.mark.parametrize(
    "x, same", [(0, 0.0), (1, 1.0), (np.float64(0.37), 0.37), (np.array(0.37), 0.37),
                (np.float32(0.5), 0.5), (np.int64(1), 1.0), (np.array(0), 0.0)]
)
def test_every_kind_of_real_scalar_gives_the_same_bits(variant, x, same):
    config, pq, _ = operator(variant, 14)
    got_values, got_row = point_values(config, pq, x)
    want_values, want_row = point_values(config, pq, same)
    assert [v.hex() for v in got_values] == [v.hex() for v in want_values]
    assert got_row.tobytes() == want_row.tobytes()


POINT_FUNCTIONS = {
    "apply": lambda config, pq, x: apply(config, pq, make_function("e0", -1.0, 2.0), x),
    "basis_row": basis_matrix,  # at one point
    "apply_central_moment": lambda config, pq, x: apply_central_moment(config, pq, x, 2),
}
NOT_REAL = ["0.5", None, True, np.True_, np.array(True), np.array("0.5"), 0.5j]
ARRAYS = [np.array([0.5]), [0.5]]  # basis_matrix evaluates these as grids


@pytest.mark.parametrize(
    "x, name",
    [(x, name) for name in POINT_FUNCTIONS
     for x in NOT_REAL + (ARRAYS if name != "basis_row" else [])],
    ids=lambda v: v if isinstance(v, str) and v in POINT_FUNCTIONS else repr(v),
)
def test_point_functions_refuse_what_is_not_one_real_number(x, name):
    config, pq = SchurerConfig(n=5, ell=1), PQPair(0.9, 0.8)
    with pytest.raises(TypeError, match="apply_on_grid or evaluate_on_grid"):
        POINT_FUNCTIONS[name](config, pq, x)


@pytest.mark.parametrize("name", list(POINT_FUNCTIONS))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan), -0.5, 1.5])
def test_point_functions_refuse_points_outside_unit_interval(name, x):
    config, pq = SchurerConfig(n=5, ell=1), PQPair(0.9, 0.8)
    with pytest.raises(ValueError, match=r"evaluated on \[0, 1\]"):
        POINT_FUNCTIONS[name](config, pq, x)

