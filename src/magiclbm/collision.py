"""Moment-space collision: relaxation rates, equilibria, sources, forces.

Each non-conserved moment relaxes toward its equilibrium at its own rate
``s``: ``m* = (1 - s) m + s m_eq`` with ``0 < s < 2``.  Conserved rows
carry ``s = 0`` and pass through unchanged, which keeps conservation
bit-exact.  A scheme's rates are a plain tuple, one per basis row.
Alongside the rate ``s`` the code uses the shifted inverse

    sigma = 1/s - 1/2,  sigma in (0, inf),

because bulk transport coefficients are linear in sigma and the wall
placement of the boundary closures depends on *products* of two sigmas.

Driving enters in one of three ways:

* a scalar source for the diffusion scheme, added to the density in two
  half increments per step, one before equilibria are evaluated and one
  after relaxation;
* a body force for the flow scheme in the same split-half pattern on
  the momentum;
* a population-form body force, applied after relaxation as a fixed
  population-space increment (momentum up by the force, heat-flux
  moment down by it).

With the split-half patterns, the physically observed field at a node
is the mid-collision value: density plus half the source, or momentum
plus half the force.  The accessor helpers in the experiments module
apply exactly that correction.
"""

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "s_to_sigma",
    "sigma_to_s",
    "relaxation_d1q3",
    "relaxation_d2q9",
    "equilibrium_d1q3",
    "equilibrium_d2q9",
    "relax",
    "apply_diffusion_source",
    "apply_force_split_half",
    "apply_force_population",
    "diffusivity_from_params",
]

_STABILITY_MSG = "outside the stability interval 0 < s < 2"


def s_to_sigma(s):
    """Shifted inverse rate sigma = 1/s - 1/2; requires 0 < s < 2."""
    s = float(s)
    if not 0.0 < s < 2.0:
        raise ConfigurationError(f"relaxation rate s={s} {_STABILITY_MSG}")
    return 1.0 / s - 0.5


def sigma_to_s(sigma):
    """Rate from shifted inverse, s = 1/(sigma + 1/2); requires a finite sigma > 0."""
    sigma = float(sigma)
    if not 0.0 < sigma < np.inf:
        raise ConfigurationError(
            f"sigma={sigma} maps to a rate {_STABILITY_MSG} "
            "(sigma must be positive and finite)"
        )
    return 1.0 / (sigma + 0.5)


def relaxation_d1q3(sigma1, sigma2):
    """Line-lattice rate tuple (0, s1, s2) from the two sigma parameters."""
    return (0.0, sigma_to_s(sigma1), sigma_to_s(sigma2))


def relaxation_d2q9(sigma5, sigma8, s_bulk=1.2):
    """Plane-lattice rate tuple, one per basis row, from the two swept sigmas.

    Rows 0-2 are conserved.  The energy and energy-square rows relax at
    the fixed rate ``s_bulk``; the heat-flux pair shares the rate from
    ``sigma5`` and the stress pair the rate from ``sigma8``.
    """
    s_bulk = float(s_bulk)
    if not 0.0 < s_bulk < 2.0:
        raise ConfigurationError(f"relaxation rate s={s_bulk} {_STABILITY_MSG}")
    s5 = sigma_to_s(sigma5)
    s8 = sigma_to_s(sigma8)
    return (0.0, 0.0, 0.0, s_bulk, s_bulk, s5, s5, s8, s8)


def equilibrium_d1q3(variant, rho, zeta):
    """Equilibrium moments (rho, 0, c2 * rho) of the line lattice.

    The second-moment coefficient is c2 = zeta / 2 for basis variant a
    and c2 = zeta for variant b.
    """
    if variant == "a":
        c2 = 0.5 * zeta
    elif variant == "b":
        c2 = zeta
    else:
        raise ValueError(f"unknown line-basis variant {variant!r}, expected 'a' or 'b'")
    rho = np.asarray(rho, dtype=np.float64)
    zero = np.zeros_like(rho)
    return np.stack([rho, zero, c2 * rho])


def equilibrium_d2q9(rho, jx, jy, alpha, beta):
    """Equilibrium moments of the plane lattice, linear in (rho, jx, jy).

    Rows: (rho, jx, jy, alpha*rho, beta*rho, -jx, -jy, 0, 0).
    """
    rho, jx, jy = np.broadcast_arrays(
        np.asarray(rho, dtype=np.float64),
        np.asarray(jx, dtype=np.float64),
        np.asarray(jy, dtype=np.float64),
    )
    zero = np.zeros_like(rho)
    return np.stack([rho, jx, jy, alpha * rho, beta * rho, -jx, -jy, zero, zero])


def relax(m, meq, rates):
    """Relax moments toward equilibrium: m* = (1 - s) m + s m_eq, row-wise.

    ``rates`` is a tuple of one rate s per row, as ``relaxation_d1q3`` and
    ``relaxation_d2q9`` lay it out.  Rows with rate 0 are returned
    bit-identical; rows with rate 1 return the equilibrium bit-identically.
    """
    m = np.asarray(m, dtype=np.float64)
    meq = np.asarray(meq, dtype=np.float64)
    s = np.array(rates, dtype=np.float64).reshape((m.shape[0],) + (1,) * (m.ndim - 1))
    return (1.0 - s) * m + s * meq


def apply_diffusion_source(m, source):
    """Add half the per-step density source to the density row.

    Called twice per step, once before equilibria are evaluated (so
    equilibria see the half-updated density) and once after relaxation.
    The full step adds exactly ``source`` to the density.
    """
    out = np.array(m, dtype=np.float64, copy=True)
    out[0] = out[0] + 0.5 * source
    return out


def apply_force_split_half(m, fx):
    """Add half the body force to the momentum row (split-half pattern).

    Called twice per step like the diffusion source, acting on row 1; the
    equilibria evaluated between the two halves see the half-updated
    momentum.
    """
    out = np.array(m, dtype=np.float64, copy=True)
    out[1] = out[1] + 0.5 * fx
    return out


def apply_force_population(m, fx):
    """Apply the population-form body force, once per step after relaxation.

    In moment space the fixed population increment adds ``fx`` to the
    momentum row and subtracts ``fx`` from the aligned heat-flux row.
    """
    out = np.array(m, dtype=np.float64, copy=True)
    out[1] = out[1] + fx
    out[5] = out[5] - fx
    return out


def diffusivity_from_params(variant, sigma1, zeta):
    """Bulk diffusivity of the line schemes, in lattice units.

    Variant a: kappa = sigma1 * zeta.
    Variant b: kappa = sigma1 * (2 + zeta) / 3.
    The two coincide when the variant-a coefficient equals
    (2 + zeta_b) / 3.
    """
    if variant == "a":
        return sigma1 * zeta
    if variant == "b":
        return sigma1 * (2.0 + zeta) / 3.0
    raise ValueError(f"unknown line-basis variant {variant!r}, expected 'a' or 'b'")
