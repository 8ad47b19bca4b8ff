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


def _integers(spec, what: str) -> list[int]:
    """Integers from an "a,b,c" string or a sequence."""
    parts = spec.split(",") if isinstance(spec, str) else spec
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"cannot parse {what} {spec!r}: {exc}") from exc


def parse_lattice_spec(spec) -> GaborLattice:
    """Accept "N,a,b" strings or [N, a, b] sequences."""
    parts = _integers(spec, "lattice spec")
    if len(parts) != 3:
        raise InvalidParameterError(f"lattice spec needs three values, got {spec!r}")
    return GaborLattice(*parts)


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


REQUIRED = "required"

# Each kind of spec document with the fields it reads: the default of each,
# or REQUIRED.  A document that names no kind is "regular".  The command
# line reads its kind flags through these tables too.
REP_KINDS = {"regular": {"group": "Z4", "multiplier": "trivial", "side": "left"},
             "gabor": {"lattice": REQUIRED},
             "character": {"n": REQUIRED, "freqs": REQUIRED},
             "custom": {"rep": REQUIRED}}
PAIR_KINDS = {"regular": {"group": "Z4", "multiplier": "trivial"},
              "gabor": {"lattice": REQUIRED},
              "custom": {"pi": REQUIRED, "sigma": REQUIRED}}


def spec_fields(kinds: dict, doc) -> tuple[str, dict]:
    """The kind a spec document names and every field that kind reads, an
    absent optional one at its default.  An unknown kind, a field the kind
    does not read and a missing required field raise InvalidParameterError."""
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"a spec must be a JSON object, got {doc!r}")
    kind = str(doc.get("kind", "regular")).lower()
    if kind not in kinds:
        raise InvalidParameterError(f"unknown kind {kind!r}; expected one of {', '.join(kinds)}")
    defaults = kinds[kind]
    unread = [str(name) for name in doc if name != "kind" and name not in defaults]
    if unread:
        raise InvalidParameterError(
            f"a {kind} spec does not read {', '.join(unread)}; it reads {', '.join(defaults)}")
    missing = [name for name, value in defaults.items() if value is REQUIRED and name not in doc]
    if missing:
        raise InvalidParameterError(f"a {kind} spec needs {', '.join(missing)}")
    return kind, {name: doc.get(name, value) for name, value in defaults.items()}


def resolve_rep_spec(doc: dict) -> ProjectiveRep:
    """Build a representation from a {"kind": ...} document with the fields
    REP_KINDS lists: "regular" (left or right regular), "gabor", "character"
    (a diagonal character family of Z_n) or "custom" (a full bundle)."""
    kind, f = spec_fields(REP_KINDS, doc)
    if kind == "gabor":
        return gabor_rep(parse_lattice_spec(f["lattice"]))
    if kind == "character":
        return character_subrep(*_integers([f["n"]], "n"), _integers(f["freqs"], "freqs"))
    if kind == "custom":
        return _checked_custom_rep(f["rep"])
    group = parse_group_spec(f["group"])
    mu = parse_multiplier_spec(group, f["multiplier"])
    build = {"left": left_regular, "right": right_regular}.get(str(f["side"]).lower())
    if build is None:
        raise InvalidParameterError(f"unknown side {f['side']!r}")
    return build(group, mu)


def resolve_pair_spec(doc: dict):
    """Build (pi, sigma, label) from a {"kind": ...} document with the fields
    PAIR_KINDS lists.  Regular pairs are (left, right) over one group and
    multiplier, gabor pairs use the adjoint lattice, custom pairs carry two
    full bundles."""
    kind, f = spec_fields(PAIR_KINDS, doc)
    if kind == "gabor":
        lattice = parse_lattice_spec(f["lattice"])
        pi, sigma = make_gabor_pair(lattice)
        adj = adjoint_lattice(lattice)
        return pi, sigma, (f"gabor[{lattice.n};{lattice.a},{lattice.b}]"
                           f"/adjoint[{adj.n};{adj.a},{adj.b}]")
    if kind == "custom":
        pi, sigma = _checked_custom_rep(f["pi"]), _checked_custom_rep(f["sigma"])
        return pi, sigma, f"custom[{pi.label}/{sigma.label}]"
    group = parse_group_spec(f["group"])
    pi, sigma = make_regular_pair(group, parse_multiplier_spec(group, f["multiplier"]))
    mu_label = f["multiplier"] if isinstance(f["multiplier"], str) else "custom"
    return pi, sigma, f"regular[{group.label},{mu_label}]"
