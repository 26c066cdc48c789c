"""Tests of the boundary closure descriptions and their link rules."""

import numpy as np
import pytest

from magiclbm.boundaries import (
    ANTI_BOUNCE_BACK,
    BOUNCE_BACK,
    PERIODIC,
    PRESSURE_ABB,
    BoundaryClosure,
    anti_bounce_back_1d,
    diffusion_closures,
    force_channel_closures,
    periodic_line_closures,
    periodic_plane_closures,
    pressure_abb_coefficient,
    pressure_anti_bounce_back,
    pressure_channel_closures,
    sound_speed_sq,
)


# ---------------------------------------------------------------------------
# Link rules
# ---------------------------------------------------------------------------


def test_anti_bounce_back_flips_sign():
    assert anti_bounce_back_1d(0.1) == pytest.approx(-0.1)


@pytest.mark.parametrize(
    "alpha, beta, expected",
    [(-2.0, 1.0, 2.0 / 9.0), (-2.5, 2.5, 1.0 / 12.0)],
)
def test_pressure_coefficient_values(alpha, beta, expected):
    assert pressure_abb_coefficient(alpha, beta) == pytest.approx(expected, rel=1e-14)


def test_pressure_anti_bounce_back_combines_flip_and_offset():
    got = pressure_anti_bounce_back(0.25, 0.9, alpha=-2.0, beta=1.0)
    assert got == pytest.approx(-0.25 + (2.0 / 9.0) * 0.9, rel=1e-14)


def test_sound_speed_squared():
    # c_s^2 = (4 + alpha) / 6, which vanishes at alpha = -4.
    assert sound_speed_sq(-2.0) == pytest.approx(1.0 / 3.0)
    assert sound_speed_sq(-2.5) == pytest.approx(0.25)
    assert sound_speed_sq(-4.0) == 0.0


# ---------------------------------------------------------------------------
# Closure descriptions
# ---------------------------------------------------------------------------


def test_closure_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown closure kind"):
        BoundaryClosure("left", "open")


def test_closure_rejects_scalar_on_plain_kinds():
    with pytest.raises(ValueError, match="takes no imposed scalar"):
        BoundaryClosure("left", PERIODIC, scalar=1.0)


def test_diffusion_closures_cover_both_ends():
    closures = diffusion_closures()
    assert {c.face for c in closures} == {"left", "right"}
    assert all(c.kind == ANTI_BOUNCE_BACK for c in closures)


def test_periodic_line_closures():
    closures = periodic_line_closures()
    assert {(c.face, c.kind) for c in closures} == {
        ("left", PERIODIC),
        ("right", PERIODIC),
    }


def test_force_channel_closures_mix_periodic_and_walls():
    kinds = {c.face: c.kind for c in force_channel_closures()}
    assert kinds == {
        "west": PERIODIC,
        "east": PERIODIC,
        "south": BOUNCE_BACK,
        "north": BOUNCE_BACK,
    }


def test_pressure_channel_closures_carry_signed_offsets():
    closures = {c.face: c for c in pressure_channel_closures(0.5)}
    assert closures["west"].kind == PRESSURE_ABB
    assert closures["west"].scalar == pytest.approx(0.5)
    assert closures["east"].kind == PRESSURE_ABB
    assert closures["east"].scalar == pytest.approx(-0.5)
    assert closures["south"].kind == BOUNCE_BACK
    assert closures["north"].kind == BOUNCE_BACK


def test_periodic_plane_closures_cover_all_faces():
    closures = periodic_plane_closures()
    assert {c.face for c in closures} == {"west", "east", "south", "north"}
    assert all(c.kind == PERIODIC for c in closures)


def test_closure_equality():
    assert BoundaryClosure("left", PERIODIC) == BoundaryClosure("left", PERIODIC)
    assert BoundaryClosure("left", PERIODIC) != BoundaryClosure("right", PERIODIC)
    # Equal closures hash equally, so equal tuples hit the kernels' caches.
    assert hash(pressure_channel_closures(1e-6)) == hash(pressure_channel_closures(1e-6))
    assert hash(pressure_channel_closures(1e-6)) != hash(pressure_channel_closures(2e-6))
