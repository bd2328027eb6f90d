"""Known truth of each property for the builtin families, from their closed forms.

TRUTH[family][(property, mode)] = (value, reason), with mode "F" for the
time-varying system and "f" for its limit. A definite verdict that disagrees
with an entry is wrong; inconclusive verdicts agree with everything. Entries
are left out where the truth is not settled by a short argument.
"""

from __future__ import annotations

ISOMETRY_FALSE = {
    "weak_mixing": "two balls at maximal spacing cannot both hit one small ball under an isometry",
    "topological_mixing": "an isometry keeps every small ball small, so its images never become dense",
    "sensitivity": "an isometry keeps every ball diameter fixed",
    "cofinite_sensitivity": "an isometry keeps every ball diameter fixed",
    "proximal_cell_density": "pair distances are constant, so only y = x is proximal to x",
    "proximal_pairs_density": "pair distances are constant, so disjoint balls hold no proximal pair",
    "li_yorke_cell_density": "a constant pair distance cannot both vanish and stay positive",
}


def _both(entries: dict) -> dict:
    return {(prop, mode): v for prop, v in entries.items() for mode in ("F", "f")}


def _mode(mode: str, entries: dict) -> dict:
    return {(prop, mode): v for prop, v in entries.items()}


_ALTERNATING = _both(
    {
        "equicontinuity": (True, "every step is a rotation, an isometry"),
        "minimality": (True, "omega_2m is rotation by 2m*alpha, alpha/(2pi) irrational, so every orbit is dense"),
        "transitivity": (True, "every orbit is dense"),
        "periodic_points": (False, "omega_2m rotates by 2m*alpha, never a multiple of 2pi"),
        "dense_periodicity": (False, "there are no periodic points"),
        **{p: (False, why) for p, why in ISOMETRY_FALSE.items()},
    }
)

_INVERSE_SQUARE = {
    **_both(
        {
            "equicontinuity": (True, "every step is a rotation, an isometry"),
            "transitivity": (False, "total displacement stays below pi^2/6, so far balls never meet"),
            **{p: (False, why) for p, why in ISOMETRY_FALSE.items()},
        }
    ),
    **_mode(
        "F",
        {
            "minimality": (False, "every orbit stays in an arc of length pi^2/6 < 2pi"),
            "periodic_points": (False, "sum_{i<=n} 1/i^2 lies in (0, pi^2/6), never a multiple of 2pi"),
            "dense_periodicity": (False, "there are no periodic points"),
        },
    ),
    **_mode(
        "f",
        {
            "minimality": (False, "the identity fixes every point"),
            "periodic_points": (True, "the identity fixes every point"),
            "dense_periodicity": (True, "every point is fixed"),
        },
    ),
}

_EXPANDING_LIMIT = {
    "equicontinuity": (False, "pair distances double until they exceed any eps"),
    "minimality": (False, "0 is a fixed point, so its orbit is not dense"),
    "transitivity": (True, "an arc doubles in length each step until it covers the space"),
    "weak_mixing": (True, "every ball image covers the space from some step on"),
    "topological_mixing": (True, "every ball image covers the space from some step on"),
    "sensitivity": (True, "every ball image grows to the whole space"),
    "cofinite_sensitivity": (True, "every ball image covers the space from some step on and stays so"),
    "periodic_points": (True, "0 is a fixed point"),
    "dense_periodicity": (True, "periodic points of an expanding degree-2 map are dense"),
    "proximal_cell_density": (True, "specification: a point of any ball shadows x infinitely often"),
    "proximal_pairs_density": (True, "specification: any two balls hold a pair that comes together"),
    "li_yorke_cell_density": (True, "specification: a point of any ball both shadows x and leaves it"),
}

_DOUBLING = {
    **_mode("f", _EXPANDING_LIMIT),
    **_mode(
        "F",
        {
            "equicontinuity": (False, "omega_n(x) - omega_n(y) = 2^n (x - y) mod 2pi"),
            "transitivity": (True, "every step doubles arc length, so ball images cover the circle"),
            "weak_mixing": (True, "every ball image covers the circle from some step on"),
            "topological_mixing": (True, "every ball image covers the circle from some step on"),
            "sensitivity": (True, "every ball image grows to the whole circle"),
            "cofinite_sensitivity": (True, "every ball image covers the circle from some step on"),
            "proximal_cell_density": (True, "pair differences evolve by doubling, as in the limit"),
            "proximal_pairs_density": (True, "pair differences evolve by doubling, as in the limit"),
            "li_yorke_cell_density": (True, "pair differences evolve by doubling, as in the limit"),
        },
    ),
}

_PLATEAU = {
    **_mode("f", _EXPANDING_LIMIT),
    **_mode(
        "F",
        {
            "equicontinuity": (False, "after f_1, points of (1/2, 1] follow the tent map"),
            "minimality": (False, "[0, 1/2] goes to 1 and then to the fixed point 0"),
            "transitivity": (False, "a ball inside [0, 1/2) collapses to 0 and never meets far balls"),
            "weak_mixing": (False, "a ball inside [0, 1/2) collapses to 0"),
            "topological_mixing": (False, "a ball inside [0, 1/2) collapses to 0"),
            "sensitivity": (False, "a ball inside [0, 1/2) has diameter 0 from step 1 on"),
            "cofinite_sensitivity": (False, "a ball inside [0, 1/2) has diameter 0 from step 1 on"),
            "periodic_points": (True, "omega_{2k}(0) = 0 for every k"),
            "dense_periodicity": (False, "points of (0, 1/2) reach 0 at step 2 and stay there"),
            "li_yorke_cell_density": (False, "points of [0, 1/2) are asymptotic to each other"),
        },
    ),
}

_ODOMETER = _mode(
    "f",
    {
        "equicontinuity": (True, "the odometer is an isometry"),
        "minimality": (True, "every odometer orbit is dense"),
        "transitivity": (True, "every odometer orbit is dense"),
        "periodic_points": (False, "adding 1 with carry never returns an infinite sequence to itself"),
        "dense_periodicity": (False, "there are no periodic points"),
        **{p: (False, why) for p, why in ISOMETRY_FALSE.items()},
    },
)

TRUTH = {
    "alternating-rotation": _ALTERNATING,
    "inverse-square-rotation": _INVERSE_SQUARE,
    "perturbed-doubling": _DOUBLING,
    "plateau-tent": _PLATEAU,
    "odometer-deletion": _ODOMETER,
}
