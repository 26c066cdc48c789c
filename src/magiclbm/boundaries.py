"""Boundary closures: how links fed from outside the domain are filled.

Streaming pulls each population from one node upstream.  At a domain
face the upstream node does not exist, and the missing value is supplied
by a closure:

* ``periodic``: the link wraps to the opposite face.
* ``bounce-back``: the incoming population equals the post-collision
  value of the opposite direction at the same node.  Enforces zero
  velocity at a point half a spacing beyond the boundary node, to
  leading order.
* ``anti-bounce-back``: same reflection with a minus sign.  Enforces a
  zero scalar (density) instead of zero velocity.
* ``pressure-abb``: anti-bounce-back plus a constant proportional to an
  imposed density offset, used to hold a pressure difference between
  the two ends of a channel.

The three non-periodic closures share one per-link rule, ``incoming``:
a pure function of the post-collision value leaving the boundary node
itself along the opposite link, which is what makes it usable as a fill
during the streaming pass (``lattice.stream``).
"""

from dataclasses import dataclass, field

from .errors import ConfigurationError

__all__ = [
    "PERIODIC",
    "BOUNCE_BACK",
    "ANTI_BOUNCE_BACK",
    "PRESSURE_ABB",
    "BoundaryClosure",
    "incoming",
    "pressure_abb_coefficient",
    "sound_speed_sq",
    "diffusion_closures",
    "periodic_line_closures",
    "force_channel_closures",
    "pressure_channel_closures",
    "periodic_plane_closures",
]

PERIODIC = "periodic"
BOUNCE_BACK = "bounce-back"
ANTI_BOUNCE_BACK = "anti-bounce-back"
PRESSURE_ABB = "pressure-abb"

_KINDS = (PERIODIC, BOUNCE_BACK, ANTI_BOUNCE_BACK, PRESSURE_ABB)


@dataclass(frozen=True)
class BoundaryClosure:
    """One face's closure: which face, which rule, and an imposed scalar.

    ``scalar`` is the imposed density offset for pressure-abb faces
    (signed: positive at the high-pressure end) and must be 0 for every
    other kind.  Closures are immutable and hashable, so a tuple of them
    can key the kernels' operator caches; the hash is computed once,
    because the kernels look their operators up on every call.
    """

    face: str
    kind: str
    scalar: float = 0.0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown closure kind {self.kind!r}, expected one of {_KINDS}"
            )
        if self.kind != PRESSURE_ABB and self.scalar != 0.0:
            raise ValueError(f"closure kind {self.kind!r} takes no imposed scalar")
        object.__setattr__(self, "scalar", float(self.scalar))
        object.__setattr__(self, "_hash", hash((self.face, self.kind, self.scalar)))

    def __hash__(self):
        return self._hash


def pressure_abb_coefficient(alpha, beta):
    """Scalar weight (4 - alpha - 2*beta) / 18 of the imposed density offset."""
    return (4.0 - alpha - 2.0 * beta) / 18.0


def incoming(closure, f_out, alpha=None, beta=None):
    """Population that ``closure`` sends in along a link entering from outside.

    ``f_out`` is the post-collision population leaving the same node along
    the opposite link.  Bounce-back returns it, anti-bounce-back negates
    it, and pressure-abb negates it and adds ``pressure_abb_coefficient(alpha,
    beta)`` times the face's signed density offset, so one formula serves
    both channel ends.
    """
    if closure.kind == BOUNCE_BACK:
        return f_out
    if closure.kind == ANTI_BOUNCE_BACK:
        return -f_out
    if closure.kind == PRESSURE_ABB:
        if alpha is None or beta is None:
            raise ConfigurationError(
                "pressure anti-bounce-back closure needs equilibrium "
                "parameters alpha and beta"
            )
        return -f_out + pressure_abb_coefficient(alpha, beta) * closure.scalar
    raise ValueError(f"closure kind {closure.kind!r} fills no incoming link")


def sound_speed_sq(alpha):
    """Squared sound speed of the plane lattice, (4 + alpha) / 6.

    Depends on the energy-moment equilibrium coefficient alpha only;
    reduces to the familiar 1 / 3 at alpha = -2.  Used to convert an
    imposed pressure drop into the density offset the pressure closure
    needs.
    """
    return (4.0 + alpha) / 6.0


def diffusion_closures():
    """Both line ends pinned to zero density by anti-bounce-back."""
    return (
        BoundaryClosure("left", ANTI_BOUNCE_BACK),
        BoundaryClosure("right", ANTI_BOUNCE_BACK),
    )


def periodic_line_closures():
    """Fully periodic line."""
    return (
        BoundaryClosure("left", PERIODIC),
        BoundaryClosure("right", PERIODIC),
    )


def force_channel_closures():
    """Channel with solid walls top and bottom and periodic ends."""
    return (
        BoundaryClosure("west", PERIODIC),
        BoundaryClosure("east", PERIODIC),
        BoundaryClosure("south", BOUNCE_BACK),
        BoundaryClosure("north", BOUNCE_BACK),
    )


def pressure_channel_closures(delta_rho):
    """Channel with solid walls and a density offset +/-delta_rho at the ends."""
    return (
        BoundaryClosure("west", PRESSURE_ABB, +delta_rho),
        BoundaryClosure("east", PRESSURE_ABB, -delta_rho),
        BoundaryClosure("south", BOUNCE_BACK),
        BoundaryClosure("north", BOUNCE_BACK),
    )


def periodic_plane_closures():
    """Fully periodic plane."""
    return (
        BoundaryClosure("west", PERIODIC),
        BoundaryClosure("east", PERIODIC),
        BoundaryClosure("south", PERIODIC),
        BoundaryClosure("north", PERIODIC),
    )
