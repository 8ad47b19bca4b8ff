"""JSON wire formats for every object the package exchanges with files and
the command line.

Complex scalars travel as [re, im] pairs.  A matrix is
{"rows": r, "cols": c, "entries": [[re, im], ...]} with entries row-major; a
vector is a flat list whose items may be numbers or [re, im] pairs.  Groups
travel as {"order", "cayley", "label"} and are fully re-validated on ingest.
Reports (classifications, validations, verdicts, sweeps, dilations) are
written by one encoder, report_to_json, that follows their dataclass fields.
"""

from __future__ import annotations

import functools
from dataclasses import fields, is_dataclass

import numpy as np

from .duality import (
    DualityVerdict,
    SweepReport,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
)
from .errors import InvalidParameterError
from .gabor import GaborLattice, adjoint_lattice, gabor_rep
from .groups import (
    FiniteGroup,
    Multiplier,
    cyclic_group,
    direct_product,
    from_cayley_table,
    heisenberg_multiplier,
    trivial_multiplier,
)
from .reps import (
    ProjectiveRep,
    character_subrep,
    left_regular,
    right_regular,
    verify_rep,
)


def _reader(fn):
    """Report a document of the wrong shape (a number where a list belongs,
    a string where a number does) as InvalidParameterError, like any other
    malformed input, instead of the Python error it happens to hit."""
    @functools.wraps(fn)
    def read(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InvalidParameterError:
            raise
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise InvalidParameterError(
                f"malformed document for {fn.__name__}: {type(exc).__name__}: {exc}"
            ) from exc
    return read


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(item) -> complex:
    if isinstance(item, (int, float)):
        return complex(item)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(float(item[0]), float(item[1]))
    raise InvalidParameterError(f"cannot read complex value from {item!r}")


def vector_to_json(v) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


@_reader
def vector_from_json(items) -> np.ndarray:
    return np.array([pair_to_complex(x) for x in items], dtype=complex)


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InvalidParameterError("matrix_to_json expects a 2-d array")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [complex_to_pair(z) for z in a.reshape(-1)],
    }


@_reader
def matrix_from_json(doc) -> np.ndarray:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = [pair_to_complex(x) for x in doc["entries"]]
    if len(entries) != rows * cols:
        raise InvalidParameterError("entry count does not match matrix shape")
    return np.array(entries, dtype=complex).reshape(rows, cols)


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "cayley": group.cayley.tolist(),
        "label": group.label,
    }


@_reader
def group_from_json(doc) -> FiniteGroup:
    return from_cayley_table(doc["cayley"], label=str(doc.get("label", "G")))


def multiplier_to_json(mu: Multiplier) -> dict:
    n = mu.group.order
    return {
        "order": n,
        "table": [[complex_to_pair(mu.table[g, h]) for h in range(n)] for g in range(n)],
    }


@_reader
def multiplier_from_json(group: FiniteGroup, doc) -> Multiplier:
    table = np.array(
        [[pair_to_complex(x) for x in row] for row in doc["table"]], dtype=complex
    )
    return Multiplier(group, table)


def rep_to_json(rep: ProjectiveRep) -> dict:
    return {
        "group": group_to_json(rep.group),
        "multiplier": multiplier_to_json(rep.multiplier),
        "dim": rep.dim,
        "label": rep.label,
        "matrices": [matrix_to_json(m) for m in rep.matrices],
    }


@_reader
def rep_from_json(doc) -> ProjectiveRep:
    group = group_from_json(doc["group"])
    mu = multiplier_from_json(group, doc["multiplier"])
    mats = np.stack([matrix_from_json(m) for m in doc["matrices"]])
    return ProjectiveRep(group, mu, mats, label=str(doc.get("label", "pi")))


# Report fields whose wire key differs from the field name.
_WIRE_KEYS = {
    (SweepReport, "label"): "pair",
    (DualityVerdict, "pi_classification"): "pi",
    (DualityVerdict, "sigma_classification"): "sigma",
    (DualityVerdict, "clause_results"): "clauses",
}


def report_to_json(obj):
    """The JSON document of a report: dataclasses become objects keyed by
    field name (or its wire key), tuples and lists become lists, arrays
    become vectors of [re, im] pairs, and scalars pass through."""
    if is_dataclass(obj):
        return {_WIRE_KEYS.get((type(obj), f.name), f.name): report_to_json(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return vector_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [report_to_json(item) for item in obj]
    if isinstance(obj, dict):
        return {key: report_to_json(value) for key, value in obj.items()}
    return obj


def sweep_report_to_csv_rows(r: SweepReport) -> list[list]:
    """One-line summary table (pair, n, failures, worst_residual)."""
    worst = max(r.commuting_residual, r.parseval_gram_defect)
    header = ["pair", "n", "failures", "worst_residual"]
    row = [r.label, r.n_random + r.n_adversarial - r.n_skipped,
           r.n_inconsistent, repr(worst)]
    return [header, row]


def parse_group_spec(spec) -> FiniteGroup:
    """Accept "Z12", products like "Z2xZ4", or a Cayley-table document."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, dict):
        return group_from_json(spec)
    text = str(spec).strip()
    factors = []
    for part in text.split("x"):
        part = part.strip()
        if not part.upper().startswith("Z") or not part[1:].isdigit():
            raise InvalidParameterError(
                f"cannot parse group spec {spec!r}; expected e.g. Z12 or Z2xZ4"
            )
        factors.append(cyclic_group(int(part[1:])))
    if not factors:
        raise InvalidParameterError(f"empty group spec {spec!r}")
    group = factors[0]
    for extra in factors[1:]:
        group = direct_product(group, extra)
    return group


def parse_multiplier_spec(group: FiniteGroup, spec) -> Multiplier:
    """Accept "trivial", "heisenberg" (square product groups only), or a
    multiplier table document."""
    if isinstance(spec, Multiplier):
        return spec
    if isinstance(spec, dict):
        return multiplier_from_json(group, spec)
    text = str(spec).strip().lower()
    if text == "trivial":
        return trivial_multiplier(group)
    if text == "heisenberg":
        root = int(round(np.sqrt(group.order)))
        if root * root != group.order:
            raise InvalidParameterError(
                "heisenberg multiplier needs a group of square order ZnxZn"
            )
        mu = heisenberg_multiplier(root)
        if not (mu.group == group):
            raise InvalidParameterError(
                f"heisenberg multiplier lives on Z{root}xZ{root}, "
                f"which differs from {group.label}"
            )
        return mu
    raise InvalidParameterError(f"cannot parse multiplier spec {spec!r}")


def parse_lattice_spec(spec) -> GaborLattice:
    """Accept "N,a,b" strings or [N, a, b] sequences."""
    if isinstance(spec, GaborLattice):
        return spec
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",")]
    else:
        parts = list(spec)
    if len(parts) != 3:
        raise InvalidParameterError(f"lattice spec needs three values, got {spec!r}")
    try:
        n, a, b = (int(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"cannot parse lattice spec {spec!r}: {exc}") from exc
    return GaborLattice(n, a, b)


def _checked_custom_rep(doc) -> ProjectiveRep:
    """A representation bundle that must be projective unitary: the commutant
    and algebra routes are valid only for such families."""
    rep = rep_from_json(doc)
    report = verify_rep(rep)
    if not report.passed:
        raise InvalidParameterError(
            f"bundle {rep.label!r} is not a projective unitary representation: "
            f"unitarity {report.unitarity_residual:.3e}, identity "
            f"{report.identity_residual:.3e}, composition "
            f"{report.composition_residual:.3e} (tolerance {report.tolerance:.1e})"
        )
    return rep


def resolve_rep_spec(doc: dict) -> ProjectiveRep:
    """Build a representation from {"kind": ...} documents.

    kinds: "regular" (left regular; fields group, multiplier, side),
    "gabor" (field lattice), "character" (fields n, freqs), "custom"
    (field rep holding a full representation bundle).
    """
    kind = str(doc.get("kind", "regular")).lower()
    if kind == "regular":
        group = parse_group_spec(doc.get("group", "Z4"))
        mu = parse_multiplier_spec(group, doc.get("multiplier", "trivial"))
        side = str(doc.get("side", "left")).lower()
        if side == "left":
            return left_regular(group, mu)
        if side == "right":
            return right_regular(group, mu)
        raise InvalidParameterError(f"unknown side {side!r}")
    if kind == "gabor":
        return gabor_rep(parse_lattice_spec(doc["lattice"]))
    if kind == "character":
        return character_subrep(int(doc["n"]), doc["freqs"])
    if kind == "custom":
        return _checked_custom_rep(doc["rep"])
    raise InvalidParameterError(f"unknown representation kind {kind!r}")


def resolve_pair_spec(doc: dict):
    """Build (pi, sigma, label) from {"kind": "regular"|"gabor"|"custom"}.

    Regular pairs are (left, right) over one group and multiplier, gabor
    pairs use the adjoint lattice, custom pairs carry two full bundles.
    """
    kind = str(doc.get("kind", "regular")).lower()
    if kind == "regular":
        group = parse_group_spec(doc.get("group", "Z4"))
        mu = parse_multiplier_spec(group, doc.get("multiplier", "trivial"))
        mu_name = doc.get("multiplier", "trivial")
        mu_label = mu_name if isinstance(mu_name, str) else "custom"
        if doc.get("projection") is not None:
            projection = matrix_from_json(doc["projection"])
            pi, sigma = make_regular_subpair(group, mu, projection)
            return pi, sigma, f"regular[{group.label},{mu_label}]|P"
        pi, sigma = make_regular_pair(group, mu)
        return pi, sigma, f"regular[{group.label},{mu_label}]"
    if kind == "gabor":
        lattice = parse_lattice_spec(doc["lattice"])
        pi, sigma = make_gabor_pair(lattice)
        adj = adjoint_lattice(lattice)
        return pi, sigma, (f"gabor[{lattice.n};{lattice.a},{lattice.b}]"
                           f"/adjoint[{adj.n};{adj.a},{adj.b}]")
    if kind == "custom":
        pi = _checked_custom_rep(doc["pi"])
        sigma = _checked_custom_rep(doc["sigma"])
        return pi, sigma, f"custom[{pi.label}/{sigma.label}]"
    raise InvalidParameterError(f"unknown pair kind {kind!r}")
