"""Tests of the lattice tables, moment bases, and pull streaming.

The moment matrices and their hand-coded inverses are the algebraic
backbone of every scheme, so they get exact oracles here: single
populations mapped through the basis by hand, round trips of
equilibrium states, and literal streaming results on tiny grids where every
entry can be traced by hand.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magiclbm.boundaries import (
    BoundaryClosure,
    diffusion_closures,
    force_channel_closures,
    periodic_line_closures,
    periodic_plane_closures,
    pressure_channel_closures,
)
from magiclbm.collision import equilibrium_d1q3
from magiclbm.errors import ConfigurationError
from magiclbm.lattice import (
    D1Q3,
    D2Q9,
    build_d1q3_basis,
    build_d2q9_basis,
    from_moments,
    stream,
    to_moments,
)

D2Q9_ROW_NORMS = np.array([9.0, 6.0, 6.0, 36.0, 36.0, 12.0, 12.0, 4.0, 4.0])


# ---------------------------------------------------------------------------
# Velocity tables
# ---------------------------------------------------------------------------


def test_d1q3_velocity_table():
    assert D1Q3.q == 3
    assert list(D1Q3.vx) == [0, 1, -1]
    assert list(D1Q3.opposite) == [0, 2, 1]


def test_d2q9_velocity_table():
    assert D2Q9.q == 9
    assert list(D2Q9.vx) == [0, 1, 0, -1, 0, 1, -1, -1, 1]
    assert list(D2Q9.vy) == [0, 0, 1, 0, -1, 1, 1, -1, -1]
    assert list(D2Q9.opposite) == [0, 3, 4, 1, 2, 7, 8, 5, 6]


@pytest.mark.parametrize("spec", [D1Q3, D2Q9], ids=["d1q3", "d2q9"])
def test_opposite_reverses_velocities(spec):
    opp = np.asarray(spec.opposite)
    assert np.array_equal(opp[opp], np.arange(spec.q))
    assert np.array_equal(np.asarray(spec.vx)[opp], -np.asarray(spec.vx))
    if spec.dim == 2:
        assert np.array_equal(np.asarray(spec.vy)[opp], -np.asarray(spec.vy))


# ---------------------------------------------------------------------------
# Line bases
# ---------------------------------------------------------------------------


def test_line_basis_a_single_population_oracle():
    # The moving population (0, 1, 0) carries density 1, flux 1 and
    # energy 1/2.
    basis = build_d1q3_basis("a")
    m = basis.matrix @ np.array([0.0, 1.0, 0.0])
    assert np.allclose(m, [1.0, 1.0, 0.5], atol=1e-15)


def test_line_basis_b_rest_population_oracle():
    # Variant b weights the rest population -2 in the energy row.
    basis = build_d1q3_basis("b")
    m = basis.matrix @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(m, [1.0, 0.0, -2.0], atol=1e-15)


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("zeta", [1.0, 2.0, 1.0 / 3.0])
def test_line_basis_round_trip(variant, zeta):
    # The inverse is exact, and an equilibrium state at each energy
    # coefficient survives the map to populations and back.
    basis = build_d1q3_basis(variant)
    eye = basis.inverse @ basis.matrix
    assert np.max(np.abs(eye - np.eye(3))) < 1e-13
    meq = equilibrium_d1q3(variant, np.array([0.5, 1.0, 2.0]), zeta)
    back = to_moments(basis, from_moments(basis, meq))
    assert np.max(np.abs(back - meq)) < 1e-13


def test_line_basis_rejects_bad_variant():
    with pytest.raises(ValueError):
        build_d1q3_basis("c")


def test_line_basis_rejects_bad_speed():
    # The line bases are in lattice units: the flux row is the velocity
    # table itself, and a velocity scale is not a parameter.
    for variant in ("a", "b"):
        assert list(build_d1q3_basis(variant).matrix[1]) == list(D1Q3.vx)
    with pytest.raises(TypeError):
        build_d1q3_basis("a", lam=0.0)


@given(
    f=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    variant=st.sampled_from(["a", "b"]),
)
def test_line_moment_map_round_trips(f, variant):
    basis = build_d1q3_basis(variant)
    field = np.array(f).reshape(3, 1)
    back = from_moments(basis, to_moments(basis, field))
    assert np.allclose(back, field, rtol=1e-12, atol=1e-10)


# ---------------------------------------------------------------------------
# Plane basis
# ---------------------------------------------------------------------------


def test_plane_basis_rows_are_orthogonal_with_known_norms():
    basis = build_d2q9_basis()
    gram = basis.matrix @ basis.matrix.T
    assert np.allclose(gram, np.diag(D2Q9_ROW_NORMS), atol=1e-12)


def test_plane_basis_inverse_is_scaled_transpose():
    basis = build_d2q9_basis()
    assert np.allclose(basis.inverse, basis.matrix.T / D2Q9_ROW_NORMS, atol=1e-15)
    eye = basis.inverse @ basis.matrix
    assert np.max(np.abs(eye - np.eye(9))) < 1e-13


def test_plane_basis_row_oracles():
    # Hand-checked rows: the axis population j=1 and diagonal j=5.
    basis = build_d2q9_basis()
    m1 = basis.matrix @ np.eye(9)[1]
    assert np.allclose(m1, [1, 1, 0, -1, -2, -2, 0, 1, 0], atol=1e-15)
    m5 = basis.matrix @ np.eye(9)[5]
    assert np.allclose(m5, [1, 1, 1, 2, 1, 1, 1, 0, 1], atol=1e-15)


def test_plane_moment_map_round_trips_random_field():
    rng = np.random.default_rng(7)
    field = rng.normal(size=(9, 5, 4))
    basis = build_d2q9_basis()
    back = from_moments(basis, to_moments(basis, field))
    assert np.max(np.abs(back - field)) < 1e-13


def test_moment_map_is_linear():
    rng = np.random.default_rng(11)
    basis = build_d2q9_basis()
    f = rng.normal(size=(9, 3, 3))
    g = rng.normal(size=(9, 3, 3))
    lhs = to_moments(basis, 2.0 * f - 0.5 * g)
    rhs = 2.0 * to_moments(basis, f) - 0.5 * to_moments(basis, g)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Streaming on a line
# ---------------------------------------------------------------------------


def test_line_periodic_stream_rotates_populations():
    # Right movers (a, b, c, d) become (d, a, b, c); left movers rotate
    # the other way; the rest population stays put.
    fstar = np.zeros((3, 4))
    fstar[0] = [9.0, 8.0, 7.0, 6.0]
    fstar[1] = [1.0, 2.0, 3.0, 4.0]
    fstar[2] = [5.0, 6.0, 7.0, 8.0]
    out = stream(D1Q3, fstar, periodic_line_closures())
    assert np.array_equal(out[0], fstar[0])
    assert np.array_equal(out[1], [4.0, 1.0, 2.0, 3.0])
    assert np.array_equal(out[2], [6.0, 7.0, 8.0, 5.0])


def test_line_anti_bounce_back_flips_sign_at_both_ends():
    fstar = np.zeros((3, 4))
    fstar[1] = [1.0, 2.0, 3.0, 4.0]
    fstar[2] = [5.0, 6.0, 7.0, 8.0]
    out = stream(D1Q3, fstar, diffusion_closures())
    # Interior links still advect.
    assert np.array_equal(out[1][1:], [1.0, 2.0, 3.0])
    assert np.array_equal(out[2][:-1], [6.0, 7.0, 8.0])
    # End links return the opposite outgoing population, negated.
    assert out[1][0] == -5.0
    assert out[2][-1] == -4.0


# ---------------------------------------------------------------------------
# Streaming on a plane
# ---------------------------------------------------------------------------


def _traceable_plane_field():
    # fstar[j, y, x] = 100 j + 10 y + x, so every streamed entry names
    # its source population and node.
    j = np.arange(9).reshape(9, 1, 1)
    y = np.arange(3).reshape(1, 3, 1)
    x = np.arange(3).reshape(1, 1, 3)
    return (100 * j + 10 * y + x).astype(np.float64)


def test_plane_periodic_stream_literal_entries():
    fstar = _traceable_plane_field()
    out = stream(D2Q9, fstar, periodic_plane_closures())
    # j = 5 moves along (+1, +1): node (0, 0) pulls from (2, 2).
    assert out[5, 0, 0] == 522.0
    # j = 1 moves along (+1, 0): node (2, 0) pulls from (2, 2).
    assert out[1, 2, 0] == 122.0
    # Periodic streaming permutes every population without loss.
    for j in range(9):
        assert np.array_equal(np.sort(out[j], axis=None), np.sort(fstar[j], axis=None))


def test_plane_wall_stream_literal_entries():
    fstar = _traceable_plane_field()
    out = stream(D2Q9, fstar, force_channel_closures())
    # Interior pull: j = 1 at (1, 1) comes from (1, 0).
    assert out[1, 1, 1] == 110.0
    # Bottom wall: the up-moving j = 2 at (0, 1) reflects the outgoing
    # j = 4 at the same node.
    assert out[2, 0, 1] == 401.0
    # Bottom wall, diagonal j = 5 at (0, 0) reflects j = 7 there.
    assert out[5, 0, 0] == 700.0
    # Top wall: down-moving j = 4 at (2, 1) reflects j = 2.
    assert out[4, 2, 1] == 221.0


def test_plane_pressure_stream_literal_entries():
    delta_rho = 0.9
    coeff = 2.0 / 9.0  # (4 - alpha - 2 beta) / 18 at alpha = -2, beta = 1
    fstar = _traceable_plane_field()
    out = stream(
        D2Q9, fstar, pressure_channel_closures(delta_rho), alpha=-2.0, beta=1.0
    )
    # West inlet, axis link: flip the opposite population and add the
    # imposed density offset.
    assert out[1, 1, 0] == pytest.approx(-310.0 + coeff * delta_rho, abs=1e-15)
    # West inlet, diagonal link away from the walls.
    assert out[5, 1, 0] == pytest.approx(-710.0 + coeff * delta_rho, abs=1e-15)
    # East outlet carries the negative offset.
    assert out[3, 1, 2] == pytest.approx(-112.0 - coeff * delta_rho, abs=1e-15)
    # Wall rows still bounce back.
    assert out[2, 0, 2] == 402.0
    # Each corner diagonal is outside through both faces at once and
    # falls back to a plain reflection, at all four corners.
    assert out[5, 0, 0] == 700.0  # south-west pulls j = 7
    assert out[6, 0, 2] == 802.0  # south-east pulls j = 8
    assert out[8, 2, 0] == 620.0  # north-west pulls j = 6
    assert out[7, 2, 2] == 522.0  # north-east pulls j = 5
    # The diagonal that enters through the wall alone is a wall link.
    assert out[6, 0, 0] == 800.0


def test_plane_pressure_with_periodic_y_fills_every_row():
    delta_rho = 0.9
    coeff = 2.0 / 9.0
    closures = (
        BoundaryClosure("west", "pressure-abb", delta_rho),
        BoundaryClosure("east", "pressure-abb", -delta_rho),
        BoundaryClosure("south", "periodic"),
        BoundaryClosure("north", "periodic"),
    )
    fstar = _traceable_plane_field()
    out = stream(D2Q9, fstar, closures, alpha=-2.0, beta=1.0)
    # No wall: every row of an end column takes the pressure rule, the
    # corner rows included.
    for j, x, offset in ((1, 0, 1), (5, 0, 1), (8, 0, 1), (3, 2, -1), (6, 2, -1), (7, 2, -1)):
        for y in range(3):
            expected = -fstar[D2Q9.opposite[j], y, x] + offset * coeff * delta_rho
            assert out[j, y, x] == pytest.approx(expected, abs=1e-15)
    assert out[5, 0, 0] == pytest.approx(-700.0 + coeff * delta_rho, abs=1e-15)
    assert out[7, 2, 2] == pytest.approx(-522.0 - coeff * delta_rho, abs=1e-15)
    # Interior links wrap through the periodic y faces.
    assert out[2, 0, 1] == 221.0


def test_pressure_stream_needs_equilibrium_parameters():
    fstar = np.zeros((9, 3, 3))
    with pytest.raises(ConfigurationError, match="alpha and beta"):
        stream(D2Q9, fstar, pressure_channel_closures(0.1))


# ---------------------------------------------------------------------------
# Closure validation
# ---------------------------------------------------------------------------


def test_stream_rejects_foreign_face():
    closures = [
        BoundaryClosure("west", "periodic"),
        BoundaryClosure("right", "periodic"),
    ]
    with pytest.raises(ConfigurationError, match="not valid here"):
        stream(D1Q3, np.zeros((3, 4)), closures)


def test_stream_rejects_duplicate_face():
    closures = [
        BoundaryClosure("left", "periodic"),
        BoundaryClosure("left", "periodic"),
        BoundaryClosure("right", "periodic"),
    ]
    with pytest.raises(ConfigurationError, match="more than one closure"):
        stream(D1Q3, np.zeros((3, 4)), closures)


def test_stream_rejects_uncovered_face():
    closures = [BoundaryClosure("left", "anti-bounce-back")]
    with pytest.raises(ConfigurationError, match="uncovered boundary links"):
        stream(D1Q3, np.zeros((3, 4)), closures)


@pytest.mark.parametrize(
    "spec, closures, face",
    [
        (D1Q3, (BoundaryClosure("left", "bounce-back"),
                BoundaryClosure("right", "anti-bounce-back")), "left"),
        (D2Q9, pressure_channel_closures(0.1)[:2]
               + (BoundaryClosure("south", "anti-bounce-back"),
                  BoundaryClosure("north", "bounce-back")), "south"),
        (D2Q9, (BoundaryClosure("west", "pressure-abb", 0.1),
                BoundaryClosure("east", "bounce-back"))
               + force_channel_closures()[2:], "east"),
    ],
)
def test_stream_rejects_unsupported_closure_kinds(spec, closures, face):
    shape = (spec.q,) + (4,) * spec.dim
    with pytest.raises(ConfigurationError, match=f"face '{face}' supports periodic or"):
        stream(spec, np.zeros(shape), closures, alpha=-2.0, beta=1.0)


def test_stream_rejects_one_sided_periodic():
    closures = [
        BoundaryClosure("left", "periodic"),
        BoundaryClosure("right", "anti-bounce-back"),
    ]
    with pytest.raises(ConfigurationError, match="both opposing faces"):
        stream(D1Q3, np.zeros((3, 4)), closures)
