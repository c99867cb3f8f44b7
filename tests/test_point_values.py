"""Point evaluation: frozen values and the one scalar check of its arguments.

``apply`` and ``apply_central_moment`` take one point x, and ``basis_matrix``
at one point gives the basis row there.  The FROZEN values below are exact:
any change that moves a single bit of a point value fails here, so a faster
point path must keep the arithmetic as it is.  The operator keeps the basis
row of each float point it evaluated, so each FROZEN value is checked both
from a cold entry and from the kept row, and the central moments against the
grid's at one point.  The argument tests cover what
one point may be (an int, a float, a NumPy real scalar or a 0-d array, all
giving the same bits) and what is refused; ``basis_matrix`` takes an array of
points as a grid, so only the two point functions refuse one.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqbernstein import clear_all
from pqbernstein.functions import DOMAIN_EDGE_TOL, DomainError, RealFunction, make_function
from pqbernstein.operator_eval import (
    BasisVariant,
    SchurerConfig,
    _tables,
    apply,
    apply_central_moment,
    basis_matrix,
    evaluate_on_grid,
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
        ("0x1.ffffffff30d3bp-1", "0x1.8f82746008152p+0",
         "0x1.6253443526170p-2", "0x1.46912acf11690p-3"),
        "0x1.0000000000000p+0 0x0.0p+0",
    ),
    ("normalized", 6): (
        ("0x1.ffffffff30d37p-1", "0x1.a44cfa3230ab9p-1",
         "0x1.5d5041d1fd3bdp-2", "0x1.696d1bc4b332fp-3"),
        "0x1.3d57a39611bbbp-3 0x1.2d0a0d06255fcp-2 0x1.1b9a3f0dbb6bep-2 0x1.5b86fb14a0e34p-3 "
        "0x1.2ff057a5c0aafp-4 0x1.8611f210d6b64p-6 0x1.6864938e465b0p-8 0x1.b8d475af3ac53p-11 "
        "0x1.133033797f1cep-14",
    ),
    ("normalized", 14): (
        ("0x1.ffffffff25959p-1", "0x1.317cc56cfcb48p-1",
         "0x1.421de73d47c89p-2", "0x1.0c107020c498bp-3"),
        "0x1.19ffb1ee7f77fp-7 0x1.576b454bd2878p-5 0x1.a0b94f510c995p-4 0x1.4eaaca06b4dfbp-3 "
        "0x1.8e7f5a22f05b2p-3 0x1.75522e3173c31p-3 0x1.1ce699d94fa51p-3 0x1.69b64ab45b194p-4 "
        "0x1.827c772009b12p-5 0x1.5d1f969774f66p-6 0x1.0a17807a18ec5p-7 0x1.532137c950288p-9 "
        "0x1.62d4627c7a39ep-11 0x1.2729b05cccfcdp-13 0x1.70e9a65a6014bp-16 "
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
        ("0x1.ffffffff2a5f5p-1", "0x1.a1b944a8d75a3p-1",
         "0x1.0fdb33b3ce0bcp-3", "0x1.4db434532ff60p-6"),
        "0x1.505d31db23a42p-35 0x1.99e863eaa18f2p-31 0x1.fd0a285796be6p-28 "
        "0x1.ad5a14a0d8de9p-25 0x1.14a495bfad90dp-22 0x1.226aa1e61bdc9p-20 "
        "0x1.02a579a4571a9p-18 0x1.91e7e066a5d10p-17 0x1.1600e8d743057p-15 "
        "0x1.5bbe8d4cc98a3p-14 0x1.8e18df614bdbcp-13 0x1.a52ddd30ae5b3p-12 "
        "0x1.9f1a520cd9f5ep-11 0x1.7fa5d23ba821fp-10 0x1.4e5ccb04835a6p-9 "
        "0x1.1419525af76c1p-8 0x1.b1c5757504de6p-8 0x1.45475e3b86f42p-7 0x1.d319d80f2a3efp-7 "
        "0x1.41f32ee40fa7bp-6 0x1.aafca632714c2p-6 0x1.10eee37af7ab3p-5 0x1.50e108d49f0edp-5 "
        "0x1.91feba99daac1p-5 0x1.d04455fb8af2ep-5 0x1.03af721b799e5p-4 0x1.198f8d42737d3p-4 "
        "0x1.27f8c647f895bp-4 0x1.2da58111a4fadp-4 0x1.29fc9ea7bef4fp-4 0x1.1d2638dd40ef3p-4 "
        "0x1.0809b9aec0a99p-4 0x1.d86b2f390d5b6p-5 0x1.97683a70ba921p-5 0x1.51a638f46c585p-5 "
        "0x1.0bcbe56c143d1p-5 0x1.9426afb385329p-6 0x1.1fc9b83772106p-6 0x1.7e3e7b997a7a2p-7 "
        "0x1.d13a1bb267e83p-8 0x1.f88bfae2d3eafp-9 0x1.d08951a177204p-10 "
        "0x1.4990218df3e0bp-11 0x1.15fe5cd537ef7p-13",
    ),
    ("normalized", 60): (
        ("0x1.ffffffff27707p-1", "0x1.39c69b8066775p+0",
         "0x1.28df6a1e206e0p-7", "0x1.a24fd98e5f3e0p-8"),
        "0x1.7d54324cc76abp-35 0x1.1cb32a100a140p-30 0x1.a9f940b9b37c0p-27 "
        "0x1.a9abcc9c60e28p-24 0x1.3f893a22e069cp-21 0x1.804f1ffd1c759p-19 "
        "0x1.819d592584031p-17 0x1.4bf215d71a764p-15 0x1.f45ffaee582ffp-14 "
        "0x1.4f5aa67b0fad5p-12 0x1.9499b2bce7a05p-11 0x1.bbaeec85b970bp-10 "
        "0x1.bdc6cb37ecf58p-9 0x1.9d17e58eef2fap-8 0x1.630f048f30020p-7 0x1.1c68d766f322cp-6 "
        "0x1.aa5edb7d25495p-6 0x1.2c2039ce34e87p-5 0x1.8e0045a5da444p-5 0x1.f27e221d6083ap-5 "
        "0x1.2788f09433fbbp-4 0x1.4c69a4a8bd839p-4 0x1.634f023077946p-4 0x1.6976873c7d46ep-4 "
        "0x1.5e747dcf083d0p-4 0x1.4432941d51911p-4 0x1.1e6e4021cee41p-4 0x1.e3c6cf3ee2a43p-5 "
        "0x1.86c34031c6d6dp-5 0x1.2e0cc1b52c0f1p-5 0x1.bf073744a5235p-6 0x1.3cc1c5204d7ddp-6 "
        "0x1.ade3cf3c19e81p-7 0x1.175a7a8fe5816p-7 0x1.5b9e1cda101f6p-8 0x1.9e081a0689d3cp-9 "
        "0x1.d7c9c3aa23598p-10 0x1.01012f3497c60p-10 0x1.0b80f6cda429cp-11 "
        "0x1.09bd9dcf0ff0ep-12 0x1.f7510401b32a0p-14 0x1.c5bd4d9979028p-15 "
        "0x1.84bddb64cc50ap-16 0x1.3be77a4cbbd41p-17 0x1.e5e037ec63dc4p-19 "
        "0x1.60a717b07b1f9p-20 0x1.e1a276a0797dbp-22 0x1.344ce600c3f1cp-23 "
        "0x1.705e6ea4a6c6bp-25 0x1.98a8eefb8ce96p-27 0x1.a251bdda62a3cp-29 "
        "0x1.882323507f53ap-31 0x1.4d828f51e8489p-33 0x1.fcb791a17b156p-36 "
        "0x1.56bd19b908bddp-38 0x1.8ff16bf32ed93p-41 0x1.893a129963e1cp-44 "
        "0x1.38f79689f217ep-47 0x1.7a5ae8ba24230p-51 0x1.3507d8fce7abep-55 "
        "0x1.0000000000006p-60",
    ),
    ("printed", 1): (
        ("0x1.ffffffff30d3bp-1", "0x1.8f82746008152p+0",
         "0x1.6253443526170p-2", "0x1.46912acf11690p-3"),
        "0x1.0000000000000p+0 0x0.0p+0",
    ),
    ("printed", 6): (
        ("0x1.084ee0a398d79p-4", "0x1.a77409403244ep-5",
         "0x1.9f7f957cc9bdep-6", "0x1.c955650b02ebcp-7"),
        "0x1.09ba843644829p-7 0x1.f827791677c73p-7 0x1.07dcd30f686bcp-6 0x1.8f2ebf118080bp-7 "
        "0x1.dee56d2a3a8d1p-8 0x1.d46122a7df2b4p-9 0x1.6e6d9a4213c21p-10 "
        "0x1.a5b1f698c53c7p-12 0x1.133033797f1cep-14",
    ),
    ("printed", 14): (
        ("0x1.1178627dbab96p-8", "0x1.2d59cabb797cep-9",
         "0x1.b73b79340ae13p-10", "0x1.a2f01328d3ddcp-11"),
        "0x1.3271700910e25p-16 0x1.752ff81547b6ap-14 0x1.dcae33acc5d96p-13 "
        "0x1.a82cbf60a6e01p-12 0x1.268c5e10d1e56p-11 0x1.52c7eca86e4b6p-11 "
        "0x1.4e20a115888b9p-11 0x1.208ae63172e0dp-11 0x1.b97c141c042bdp-12 "
        "0x1.2c913c35dd70ap-12 0x1.6b7b2b4b5c130p-13 0x1.82db56720fa4cp-14 "
        "0x1.63ce9a8e5d832p-15 0x1.11de800d74225p-16 0x1.4d66e6a63d1cep-18 "
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
        ("0x1.125bb0b708645p-6", "0x1.45685a47db95cp-6",
         "0x1.84dd05fe6f1b4p-9", "0x1.16cf06d7f1af0p-11"),
        "0x1.3b5741a815e1fp-48 0x1.8049ba3abb585p-44 0x1.e20b6278c7da2p-41 "
        "0x1.9ed681e4cd89ap-38 0x1.137916a98ad66p-35 0x1.2d0d0d7dfad4fp-33 "
        "0x1.19ef63601b5e0p-31 0x1.d1530b48aba5cp-30 0x1.5954bc3b0ae67p-28 "
        "0x1.d420862802d4ep-27 0x1.2552aa793c52bp-25 0x1.5723f06ac1800p-24 "
        "0x1.79b91abbbbf2ep-23 0x1.89d8f83401743p-22 0x1.872933dd835d4p-21 "
        "0x1.73cceb8c3c2e3p-20 0x1.5395b132d0efcp-19 0x1.2b132b9bf5668p-18 "
        "0x1.fd7dbcb834c13p-18 0x1.a4ce0ac36efb7p-17 0x1.51c291f47e8ecp-16 "
        "0x1.07f700fda9861p-15 0x1.925e833512300p-15 0x1.2b7ac24623d84p-14 "
        "0x1.b3d14bf0fff2cp-14 0x1.36451c03589d1p-13 0x1.b07f9a19fb68cp-13 "
        "0x1.27336e59b30dfp-12 0x1.8aa72bba581cfp-12 0x1.0248e30d26583p-11 "
        "0x1.4aca6eb4284f4p-11 0x1.9e164726baf62p-11 0x1.f9dc6e1c20f4fp-11 "
        "0x1.2cde5015a170ap-10 0x1.5b6b061580f45p-10 0x1.83c9d185639b7p-10 "
        "0x1.9ffabe44d211fp-10 0x1.a9566a3b0fd94p-10 0x1.99b418258be59p-10 "
        "0x1.6d47cab9b8590p-10 0x1.25214cd6c7bb8p-10 0x1.936eb9621ffcap-11 "
        "0x1.b0297c72611e6p-12 0x1.15fe5cd537ef7p-13",
    ),
    ("printed", 60): (
        ("0x1.55dcb07bd4c1bp-1", "0x1.9f81a3e22e83fp-1",
         "0x1.ebdee2761b480p-8", "0x1.1a6ccb5fdfb80p-8"),
        "0x1.d9eef679dbb30p-36 0x1.61d69e3362ad8p-31 0x1.08c7fb5c39596p-27 "
        "0x1.08bc426d5cbf1p-24 0x1.8dc67e4cc4805p-22 0x1.deec42bd51df6p-20 "
        "0x1.e13234dba8d25p-18 0x1.9ee49243a18e9p-16 0x1.394b2e8ce1d29p-14 "
        "0x1.a4d8a9ec7eec3p-13 0x1.fcf9b40397e9ep-12 0x1.17d245c4cba3bp-10 "
        "0x1.19f95765dcdd5p-9 0x1.06250011bc4ddp-8 0x1.c435c57f3689ep-8 0x1.6b9870f6ce837p-7 "
        "0x1.11a44db7049aap-6 0x1.82e5de33a167fp-6 0x1.01b5cf32e31a6p-5 0x1.4458574395ab0p-5 "
        "0x1.828cafcace9a3p-5 0x1.b520bf43c367cp-5 0x1.d5e195e8f75e7p-5 0x1.e0dae7a25bfdbp-5 "
        "0x1.d51a2ab742bd9p-5 0x1.b4c37c16d2791p-5 0x1.847c34cf24effp-5 0x1.4a5f8905fd3a9p-5 "
        "0x1.0ccc158057ac3p-5 0x1.a2afad07787ccp-6 0x1.383f94ca25175p-6 0x1.be173eaf64e09p-7 "
        "0x1.313db96704a32p-7 0x1.90223cd9a452dp-8 0x1.f65932a28f406p-9 0x1.2de8a0631a89ap-9 "
        "0x1.5b46a23bb213dp-10 0x1.7e0871c5b200ep-11 0x1.919d2eb504093p-12 "
        "0x1.931014f7f477fp-13 0x1.81b9b781fa1c7p-14 0x1.5f7d6de994628p-15 "
        "0x1.3079e85ad327ap-16 0x1.f47901cb3570dp-18 0x1.85597c5b6bb08p-19 "
        "0x1.1df47b92d43fcp-20 0x1.8b4b74ba1c60ep-22 0x1.002e594013317p-23 "
        "0x1.35fc6f1faee0fp-25 0x1.5c5b5893bef79p-27 0x1.69517d4203192p-29 "
        "0x1.5749562a9a9e6p-31 0x1.27fe132c6b760p-33 0x1.c9d8376f38774p-36 "
        "0x1.38e3d2d9a1dacp-38 0x1.72734d6be9218p-41 0x1.71a762658e39dp-44 "
        "0x1.2aaad52b20b33p-47 0x1.6ea4585d24269p-51 0x1.302b2e2f6d856p-55 "
        "0x1.0000000000006p-60",
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


# each point call on its own, in FROZEN's order; the operator keeps the basis
# row of every float x evaluated, so all but the first call at x reuse it
POINT_CALLS = ("e0", "f_fig", "central_1", "central_2", "basis")


def row_key(x: float):
    """The key of x's kept basis row: x itself, or its bits for the two zeros."""
    return x or x.hex()


def point_call(name, config, pq, x):
    if name in ("e0", "f_fig"):
        return apply(config, pq, make_function(name, *required_domain(config, pq)), x)
    if name == "basis":
        return basis_matrix(config, pq, x)
    return apply_central_moment(config, pq, x, int(name[-1]))


@pytest.mark.parametrize("name", POINT_CALLS)
@pytest.mark.parametrize("variant, n", list(FROZEN), ids=[f"{v}-n{n}" for v, n in FROZEN])
def test_frozen_values_do_not_depend_on_the_kept_rows(variant, n, name):
    config, pq, x = operator(variant, n)
    values, row = FROZEN[variant, n]
    want = row.split() if name == "basis" else [values[POINT_CALLS.index(name)]]
    clear_all()
    cold = point_call(name, config, pq, x)  # builds the row at x
    for other in POINT_CALLS:
        if other != name:
            point_call(other, config, pq, x)
    warm = point_call(name, config, pq, x)  # reads it
    assert list(_tables(config, pq).kept) == [row_key(float(x))]
    assert [float(v).hex() for v in np.atleast_1d(cold)] == want
    assert [float(v).hex() for v in np.atleast_1d(warm)] == want


EDGE_POINTS = [0.0, -0.0, 1.0, -DOMAIN_EDGE_TOL, -0.5 * DOMAIN_EDGE_TOL,
               1.0 + 0.5 * DOMAIN_EDGE_TOL, 1.0 + DOMAIN_EDGE_TOL]


def with_examples(test):
    for x in EDGE_POINTS:
        for order in (1, 2):
            test = example(x=x, order=order, variant="normalized", n=14)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-DOMAIN_EDGE_TOL, 1.0 + DOMAIN_EDGE_TOL),
    order=st.sampled_from((1, 2)),
    variant=st.sampled_from(("normalized", "printed")),
    n=st.sampled_from(list(CASES)),
)
@with_examples
def test_a_central_moment_is_the_grid_central_at_one_point(x, order, variant, n):
    config, pq, _ = operator(variant, n)
    clear_all()
    cold = apply_central_moment(config, pq, x, order)
    warm = apply_central_moment(config, pq, x, order)
    clear_all()
    grid = evaluate_on_grid(config, pq, (), x).central[order - 1]
    assert type(cold) is float
    assert cold.hex() == warm.hex() == float(grid).hex()


def test_zero_and_minus_zero_keep_their_own_rows():
    config, pq, _ = operator("normalized", 6)
    clear_all()
    plus, minus = basis_matrix(config, pq, 0.0), basis_matrix(config, pq, -0.0)
    assert plus.tobytes() == basis_matrix(config, pq, np.array([0.0]))[0].tobytes()
    assert minus.tobytes() == basis_matrix(config, pq, np.array([-0.0]))[0].tobytes()
    assert plus.tobytes() != minus.tobytes()  # x^k gives -0.0 from k = 1
    assert list(_tables(config, pq).kept) == [(0.0).hex(), (-0.0).hex()]


def test_basis_matrix_at_a_point_is_a_writable_copy_of_the_kept_row():
    config, pq, x = operator("normalized", 14)
    e0 = make_function("e0", *required_domain(config, pq))
    clear_all()
    before = apply(config, pq, e0, x)
    row = basis_matrix(config, pq, x)
    kept = _tables(config, pq).kept
    assert row.flags.writeable and not kept[row_key(x)].flags.writeable
    assert not any(np.shares_memory(row, other) for other in kept.values())
    row[:] = 7.0
    assert apply(config, pq, e0, x).hex() == before.hex()
    assert basis_matrix(config, pq, x).tobytes() == kept[row_key(x)].tobytes()


def test_apply_checks_the_domain_of_every_function_object_it_has_not_passed():
    # the operator remembers the last function object found inside its hull;
    # another object is checked again, even one with the same fn
    config, pq, x = operator("normalized", 14)
    lo, hi = required_domain(config, pq)
    fig = make_function("f_fig", lo, hi)
    narrow = RealFunction(fig.fn, lo, 0.5 * (lo + hi), name="f_fig")
    clear_all()
    want = apply(config, pq, fig, x).hex()
    for clear in (False, True, False, True):
        if clear:
            clear_all()
        with pytest.raises(DomainError):  # first on a fresh entry, or after the covering one
            apply(config, pq, narrow, x)
        for point in (x, x, 0.5):  # warm calls, on a kept row too
            apply(config, pq, fig, point)
        with pytest.raises(DomainError):
            apply(config, pq, narrow, x)
        assert apply(config, pq, fig, x).hex() == want
    with pytest.raises(DomainError):
        apply(config, pq, dataclasses.replace(fig, hi=0.5 * (lo + hi)), x)


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
@pytest.mark.parametrize(
    "x",
    [math.nan, math.inf, -math.inf, np.float64(math.nan), -0.5, 1.5,
     # beyond float range: float() raised OverflowError on these
     pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
)
def test_point_functions_refuse_points_outside_unit_interval(name, x):
    config, pq = SchurerConfig(n=5, ell=1), PQPair(0.9, 0.8)
    with pytest.raises(ValueError, match=r"evaluated on \[0, 1\]"):
        POINT_FUNCTIONS[name](config, pq, x)

