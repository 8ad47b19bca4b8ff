"""The benchmark's three workloads.

A workload is a round of CLI calls, the same argv every round, generated from
the run's seed, plus the check of each call's report against the oracles in
oracle.py.  Checks run after the timed rounds and never inside them.

certify-ladder  certify-pair and commutant over regular, Heisenberg and
                Gabor pairs: time goes to the stacked Sylvester SVDs of the
                vonneumann layer.
sweep-bulk      duality sweeps of 3000 draws on small pairs: time goes to the
                per-vector classify / verify_duality loop.
cli-oneshot     a shuffled mix of short commands, each rebuilding its
                representation: time goes to construction (gabor_rep,
                derive_multiplier), large Gram eigendecompositions and the
                serialize / cli layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

FLAGS = ("is_frame_sequence", "is_complete_frame", "is_parseval",
         "is_riesz_sequence", "is_orthonormal", "orbit_span_dim")


class CheckFailed(Exception):
    """A report disagrees with the oracle or with an invariant."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Spec:
    """A representation pair: a cyclic group Z_n with the trivial cocycle
    (left/right regular), Z_n x Z_n with the Heisenberg cocycle (left/right
    regular), or a Gabor lattice (n, a, b) with its adjoint lattice."""

    kind: str
    n: int
    a: int = 0
    b: int = 0

    @property
    def dim(self) -> int:
        return self.n * self.n if self.kind == "heisenberg" else self.n

    @property
    def name(self) -> str:
        if self.kind == "gabor":
            return f"gabor({self.n},{self.a},{self.b})"
        return f"Z{self.n}xZ{self.n}" if self.kind == "heisenberg" else f"Z{self.n}"

    def _regular_args(self) -> list[str]:
        if self.kind == "heisenberg":
            return ["--group", f"Z{self.n}xZ{self.n}", "--multiplier", "heisenberg"]
        return ["--group", f"Z{self.n}", "--multiplier", "trivial"]

    def pair_args(self) -> list[str]:
        if self.kind == "gabor":
            return ["--pair", "gabor", "--lattice", f"{self.n},{self.a},{self.b}"]
        return ["--pair", "regular", *self._regular_args()]

    def rep_args(self) -> list[str]:
        if self.kind == "gabor":
            return ["--rep", "gabor", "--lattice", f"{self.n},{self.a},{self.b}"]
        return ["--rep", "regular", *self._regular_args()]

    def doc(self) -> dict:
        """The spec document serialize.resolve_pair_spec / resolve_rep_spec read."""
        if self.kind == "gabor":
            return {"kind": "gabor", "lattice": [self.n, self.a, self.b]}
        if self.kind == "heisenberg":
            return {"kind": "regular", "group": f"Z{self.n}xZ{self.n}",
                    "multiplier": "heisenberg"}
        return {"kind": "regular", "group": f"Z{self.n}", "multiplier": "trivial"}

    def _group(self):
        orders = (self.n, self.n) if self.kind == "heisenberg" else (self.n,)
        cayley, inverse = oracle.cyclic_product(orders)
        return cayley, inverse, self.cocycle()

    def cocycle(self) -> np.ndarray:
        if self.kind == "gabor":
            return oracle.gabor_cocycle(self.n, self.a, self.b)
        if self.kind == "heisenberg":
            return oracle.heisenberg_cocycle(self.n)
        return oracle.trivial_cocycle(self.n)

    def pi_orbit(self, x) -> np.ndarray:
        if self.kind == "gabor":
            return oracle.gabor_orbit(self.n, self.a, self.b, x)
        return oracle.regular_orbit(*self._group(), x, "left")

    def sigma_orbit(self, x) -> np.ndarray:
        if self.kind == "gabor":
            return oracle.gabor_orbit(self.n, self.n // self.b, self.n // self.a, x)
        return oracle.regular_orbit(*self._group(), x, "right")

    def dims(self) -> tuple[int, int, int]:
        """Closed-form (commutant, algebra, center) dimensions of pi(G)."""
        return oracle.closed_form_dims(self.kind, self.n, self.a, self.b)

    @property
    def one_index_group(self) -> bool:
        """Regular pairs share their index group; adjoint Gabor pairs do not."""
        return self.kind != "gabor"


@dataclass(frozen=True)
class Call:
    """One framedual.cli.main(argv) call.  ``check`` takes the parsed report,
    raises CheckFailed on a mismatch and returns how many vectors the report
    verified (the numerator of vectors_per_s)."""

    argv: list[str]
    check: Callable[[dict], int]


def vector_arg(x) -> str:
    """Inline CLI vector whose parse gives back x exactly."""
    return ",".join(repr(complex(z)) for z in x)


def from_pairs(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items])


def gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def match_classification(reported: dict, orbit, what: str) -> dict:
    ref = oracle.classification(orbit)
    for flag in FLAGS:
        expect(reported[flag] == ref[flag],
               f"{what}: {flag} is {reported[flag]}, oracle says {ref[flag]}")
    scale = max(ref["upper_bound"], 1.0)
    for bound in ("lower_bound", "upper_bound"):
        expect(abs(reported[bound] - ref[bound]) <= 1e-9 * scale,
               f"{what}: {bound} {reported[bound]!r}, oracle {ref[bound]!r}")
    return ref


def match_verdict(verdict: dict, spec: Spec, x, what: str) -> None:
    expect(np.allclose(from_pairs(verdict["vector"]), x, rtol=0, atol=1e-15),
           f"{what}: verdict is about another vector")
    pc = match_classification(verdict["pi"], spec.pi_orbit(x), f"{what} pi")
    sc = match_classification(verdict["sigma"], spec.sigma_orbit(x), f"{what} sigma")
    clauses = {
        "frame_sequence": pc["is_frame_sequence"] == sc["is_frame_sequence"],
        "frame_riesz": pc["is_complete_frame"] == sc["is_riesz_sequence"],
        "parseval_orthonormal": (pc["is_complete_frame"] and pc["is_parseval"])
        == sc["is_orthonormal"],
    }
    expect(verdict["clauses"] == clauses, f"{what}: clauses {verdict['clauses']} != {clauses}")
    expect(verdict["theorem_consistent"] is True, f"{what}: theorem not consistent")


class Workload:
    """What run.py needs from a workload."""

    name = ""
    setup_repeats = 1    # set-ups in each of a run's three groups; setup_s is their median
    min_calls = 1        # calls a run makes at least, whatever --seconds says
    specs: tuple[Spec, ...] = ()    # pairs built at set-up
    warmup: tuple[tuple[str, ...], ...] = ()

    def setup(self, fd) -> dict:
        """Build every pair the workload uses from its spec document."""
        return {spec: fd.serialize.resolve_pair_spec(spec.doc()) for spec in self.specs}

    def prepare(self, fd, outdir: Path) -> None:
        """Untimed preparation after set-up (files the calls read)."""

    def calls(self, seed: int, outdir: Path) -> list[Call]:
        raise NotImplementedError

    def check_built(self, built: dict, seed: int, fd) -> None:
        """Check the set-up's pairs against the oracle constructions."""
        rng = np.random.default_rng([seed, 7])
        for spec, (pi, sigma, _label) in built.items():
            x = gaussian(rng, spec.dim)
            expect(np.allclose(pi.matrices @ x, spec.pi_orbit(x), atol=1e-12),
                   f"{spec.name}: pi differs from the oracle construction")
            expect(np.allclose(sigma.matrices @ x, spec.sigma_orbit(x), atol=1e-12),
                   f"{spec.name}: sigma differs from the oracle construction")
            expect(np.allclose(pi.multiplier.table, spec.cocycle(), atol=1e-10),
                   f"{spec.name}: pi's multiplier differs from the oracle cocycle")


# --- certify-ladder -------------------------------------------------------

# The largest rungs run one command each, so that no case holds more than
# about a quarter of a round and two rounds fit in a run.
LADDER = (("certify-pair", Spec("cyclic", 8)), ("commutant", Spec("cyclic", 8)),
          ("certify-pair", Spec("cyclic", 12)), ("commutant", Spec("cyclic", 12)),
          ("commutant", Spec("cyclic", 16)), ("certify-pair", Spec("cyclic", 18)),
          ("certify-pair", Spec("heisenberg", 3)), ("commutant", Spec("heisenberg", 3)),
          ("certify-pair", Spec("heisenberg", 4)),
          ("certify-pair", Spec("gabor", 12, 3, 2)), ("commutant", Spec("gabor", 12, 3, 2)),
          ("certify-pair", Spec("gabor", 12, 2, 3)), ("commutant", Spec("gabor", 12, 2, 3)),
          ("certify-pair", Spec("gabor", 16, 2, 2)))


def check_certify(spec: Spec) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        r = report["result"]["report"]
        c = r["commuting"]
        expect(c["is_pair"] is True, f"{spec.name}: not certified as a commuting pair")
        expect(c["pi_commutant_dim"] == spec.dims()[0],
               f"{spec.name}: commutant dim {c['pi_commutant_dim']} != {spec.dims()[0]}")
        # a commuting pair has dim sigma(G)'' = dim pi(G)'
        expect(c["sigma_algebra_dim"] == spec.dims()[0],
               f"{spec.name}: algebra dim {c['sigma_algebra_dim']}")
        expect(c["residual"] < oracle.PAIR_TOL, f"{spec.name}: residual {c['residual']}")
        expect(r["feasible"] is True and r["infeasibility"] is None,
               f"{spec.name}: infeasible ({r['infeasibility']})")
        frame = from_pairs(r["frame_vector"])
        expect(oracle.classification(spec.pi_orbit(frame))["is_complete_frame"],
               f"{spec.name}: frame witness does not frame the space")
        bessel = oracle.classification(spec.sigma_orbit(frame))["upper_bound"]
        expect(abs(r["frame_vector_sigma_bessel"] - bessel) <= 1e-9 * max(bessel, 1.0),
               f"{spec.name}: Bessel bound {r['frame_vector_sigma_bessel']} != {bessel}")
        parseval = from_pairs(r["parseval_frame_vector"])
        s = oracle.frame_operator(spec.pi_orbit(parseval))
        expect(np.abs(s - np.eye(spec.dim)).max() <= oracle.FLAG_TOL,
               f"{spec.name}: Parseval witness has S != I")
        riesz = from_pairs(r["riesz_vector"])
        expect(oracle.classification(spec.sigma_orbit(riesz))["is_riesz_sequence"],
               f"{spec.name}: Riesz witness has a rank-deficient Gram matrix")
        return 3
    return check


def check_commutant(spec: Spec) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        res = report["result"]
        comm, alg, center = spec.dims()
        got = (res["commutant_dim"], res["algebra_dim"], res["center_dim"])
        expect(got == (comm, alg, center),
               f"{spec.name}: (commutant, algebra, center) {got} != {(comm, alg, center)}")
        expect(res["dim"] == spec.dim and res["is_factor"] == (center == 1),
               f"{spec.name}: dim or factor flag wrong")
        return 0
    return check


class CertifyLadder(Workload):
    name = "certify-ladder"
    setup_repeats = 10
    specs = tuple(dict.fromkeys(spec for _, spec in LADDER))
    warmup = (("certify-pair", "--group", "Z4"), ("commutant", "--group", "Z4"))

    def calls(self, seed, outdir):
        return [Call(["certify-pair", *spec.pair_args(), "--seed", str(seed)],
                     check_certify(spec))
                if command == "certify-pair" else
                Call(["commutant", *spec.rep_args()], check_commutant(spec))
                for command, spec in LADDER]


# --- sweep-bulk -------------------------------------------------------------

# (pair, draws, worker threads); five calls a round, so that the median call
# is the middle of the three serial 3000-draw sweeps of similar cost
SWEEPS = ((Spec("cyclic", 8), 3000, 1), (Spec("heisenberg", 3), 3000, 1),
          (Spec("gabor", 8, 2, 2), 3000, 1), (Spec("gabor", 12, 3, 2), 3000, 1),
          (Spec("cyclic", 8), 2000, 2))
CLASSIFY_SAMPLES = 4   # vectors per pair whose classify output meets the oracle


def check_sweep(spec: Spec, draws: int) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        r = report["result"]
        expect(r["n_random"] == draws, f"{spec.name}: n_random {r['n_random']}")
        expect(r["n_inconsistent"] == 0 and r["counterexamples"] == [],
               f"{spec.name}: {r['n_inconsistent']} inconsistent vectors")
        expect(r["n_skipped"] == 1, f"{spec.name}: {r['n_skipped']} skipped, only zero may be")
        expect(r["n_consistent"] + r["n_skipped"] == r["n_random"] + r["n_adversarial"],
               f"{spec.name}: counts do not add up")
        expect(r["feasible"] is True, f"{spec.name}: pair not feasible")
        clauses = (["frame_sequence", "frame_riesz", "parseval_orthonormal"]
                   if spec.one_index_group else ["frame_sequence", "frame_riesz"])
        expect(r["clauses"] == clauses, f"{spec.name}: clauses {r['clauses']}")
        expect(r["commuting_residual"] < oracle.PAIR_TOL,
               f"{spec.name}: commuting residual {r['commuting_residual']}")
        expect(r["parseval_gram_defect"] < oracle.FLAG_TOL,
               f"{spec.name}: Parseval Gram defect {r['parseval_gram_defect']}")
        return r["n_consistent"] + r["n_inconsistent"]
    return check


class SweepBulk(Workload):
    name = "sweep-bulk"
    setup_repeats = 30
    specs = tuple(dict.fromkeys(spec for spec, _, _ in SWEEPS))
    warmup = (("sweep", "--group", "Z4", "--n", "20"),)

    def calls(self, seed, outdir):
        return [Call(["sweep", *spec.pair_args(), "--n", str(draws), "--seed", str(seed),
                      "--jobs", str(jobs)], check_sweep(spec, draws))
                for spec, draws, jobs in SWEEPS]

    def check_built(self, built, seed, fd):
        super().check_built(built, seed, fd)
        rng = np.random.default_rng([seed, 11])
        for spec, (pi, sigma, _label) in built.items():
            for i in range(CLASSIFY_SAMPLES):
                x = gaussian(rng, spec.dim)
                got = fd.classify(pi, x)
                match_classification(vars(got), spec.pi_orbit(x), f"{spec.name} pi #{i}")
                got = fd.classify(sigma, x)
                match_classification(vars(got), spec.sigma_orbit(x), f"{spec.name} sigma #{i}")


# --- cli-oneshot ------------------------------------------------------------

LARGE = (Spec("cyclic", 64), Spec("cyclic", 128), Spec("heisenberg", 8),
         Spec("gabor", 16, 1, 1), Spec("gabor", 24, 2, 2), Spec("gabor", 32, 2, 2))
WINDOWS = (Spec("gabor", 12, 3, 2), Spec("gabor", 8, 2, 2))
DUALITY = (Spec("cyclic", 6), Spec("heisenberg", 3), Spec("gabor", 8, 2, 2))
VALIDATE_N = (4, 8, 12)
BUNDLES = (Spec("heisenberg", 4), Spec("gabor", 12, 3, 2))
DILATE = (Spec("cyclic", 8), Spec("gabor", 8, 2, 2))
# Calls per round beyond one (three for DUALITY).  The light calls (10-15 ms)
# are most of a round so that the median call lies inside their cluster; the
# 90th percentile lies amid the five 0.3-0.4 s calls (Gabor (24,2,2) classify
# and (12,3,2) windows) below the two largest Gabor builds.
COPIES = {Spec("cyclic", 64): 6, Spec("cyclic", 128): 3, Spec("heisenberg", 8): 6,
          Spec("gabor", 24, 2, 2): 2, Spec("cyclic", 6): 6}


def bundle_path(outdir: Path, spec: Spec) -> Path:
    return outdir / f"bundle-{spec.kind}-{spec.n}-{spec.a}-{spec.b}.json"


def check_classify(spec: Spec, x) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        cls = report["result"]["classification"]
        ref = match_classification(cls, spec.pi_orbit(x), f"classify {spec.name}")
        if spec.kind == "gabor" and spec.a == spec.b == 1:
            tight = spec.n * float(np.vdot(x, x).real)
            expect(abs(ref["lower_bound"] - tight) <= 1e-9 * tight
                   and abs(ref["upper_bound"] - tight) <= 1e-9 * tight,
                   f"classify {spec.name}: full lattice not tight with bound n|g|^2")
        return 1
    return check


def check_window(spec: Spec, x, zak: bool) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        res = report["result"]
        n, a, b = spec.n, spec.a, spec.b
        expect(res["lattice"] == [n, a, b] and res["adjoint"] == [n, n // b, n // a],
               f"gabor {spec.name}: lattice or adjoint wrong")
        expect(res["group_order"] == (n // a) * (n // b) and res["adjoint_group_order"] == a * b,
               f"gabor {spec.name}: group orders wrong")
        match_verdict(res["window_verdict"], spec, x, f"gabor {spec.name}")
        if zak:
            m = res["zak"]
            got = from_pairs(m["entries"]).reshape(m["rows"], m["cols"])
            expect(np.allclose(got, oracle.zak(x, a), atol=1e-12),
                   f"gabor {spec.name}: Zak transform differs from its defining sum")
        else:
            expect("zak" not in res, f"gabor {spec.name}: Zak transform not asked for")
        return 1
    return check


def check_duality(spec: Spec, x) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        match_verdict(report["result"]["verdict"], spec, x, f"verify-duality {spec.name}")
        return 1
    return check


def check_multiplier(n: int) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        res = report["result"]
        expect(res["group"]["order"] == n * n, f"validate N={n}: group order")
        mult = res["multiplier"]
        expect(mult["passed"] and mult["unit_modulus_ok"] and mult["normalization_ok"]
               and mult["cocycle_ok"] and mult["inverse_symmetry_ok"],
               f"validate N={n}: Heisenberg cocycle rejected")
        expect(mult["max_residual"] <= 1e-12, f"validate N={n}: residual {mult['max_residual']}")
        return 0
    return check


def check_bundle(spec: Spec) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        rep = report["result"]["representation"]
        expect(rep["passed"] is True, f"validate bundle {spec.name}: rejected")
        worst = max(rep["unitarity_residual"], rep["identity_residual"],
                    rep["composition_residual"])
        expect(worst <= oracle.REP_TOL, f"validate bundle {spec.name}: residual {worst}")
        return 0
    return check


def check_dilate(spec: Spec, x, mode: str) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        d = report["result"]["dilation"]
        h, base = from_pairs(d["h"]), from_pairs(d["vector"])
        expect(d["mode"] == mode, f"dilate {spec.name}: mode {d['mode']}")
        if mode == "parseval":
            want = oracle.psd_inverse_sqrt(oracle.frame_operator(spec.pi_orbit(x))) @ x
        else:
            want = x
        expect(np.allclose(base, want, atol=1e-10), f"dilate {spec.name}: wrong base vector")
        orbit_base, orbit_h = spec.pi_orbit(base), spec.pi_orbit(h)
        cross = np.linalg.norm(orbit_base.T @ orbit_h.conj())
        scale = np.linalg.norm(orbit_base) * max(np.linalg.norm(orbit_h), 1.0)
        expect(cross <= 1e-7 * scale, f"dilate {spec.name}: orbit ranges not orthogonal")
        target = spec.pi_orbit(base + h)
        expect(oracle.classification(target)["is_complete_frame"],
               f"dilate {spec.name}: dilated vector does not frame the space")
        if mode == "parseval":
            s = oracle.frame_operator(target)
            expect(np.abs(s - np.eye(spec.dim)).max() <= oracle.FLAG_TOL,
                   f"dilate {spec.name}: dilated vector is not Parseval")
        return 1
    return check


def deficient_vector(spec: Spec, rng: np.random.Generator) -> np.ndarray:
    """A vector whose orbit spans only part of the space, so that dilation
    has work to do: for Z_n a combination of half the Fourier vectors, for
    Gabor (n, a, b) the image of a random vector under the commutant
    projection (I + T^{n/2}) / 2, which needs n and a even (T^{n/2} then
    commutes with M^a and with every translation)."""
    y = gaussian(rng, spec.dim)
    if spec.kind == "gabor":
        return (y + np.roll(y, spec.n // 2)) / 2
    freqs = rng.choice(spec.n, size=spec.n // 2, replace=False)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(spec.n), freqs) / spec.n)
    return fourier @ y[: freqs.size]


class CliOneshot(Workload):
    name = "cli-oneshot"
    setup_repeats = 1
    # at least ten calls beyond the 90th percentile
    min_calls = 100
    specs = tuple(dict.fromkeys(WINDOWS + DUALITY + DILATE))
    warmup = (("classify", "--group", "Z4", "--vector", "1,0,0,0"),
              ("gabor", "--lattice", "4,2,2", "--window", "1,0,0,0", "--zak"),
              ("validate", "--multiplier", "heisenberg", "--N", "2"),
              ("dilate", "--group", "Z4", "--vector", "1,1,0,0"))

    def setup(self, fd):
        built = super().setup(fd)
        for spec in LARGE:
            built[spec] = fd.serialize.resolve_rep_spec(spec.doc())
        for n in VALIDATE_N:
            group = fd.serialize.parse_group_spec(f"Z{n}xZ{n}")
            fd.validate_multiplier(fd.serialize.parse_multiplier_spec(group, "heisenberg"))
        return built

    def prepare(self, fd, outdir):
        """Write each bundle from the oracle's group, cocycle and matrices."""
        outdir.mkdir(parents=True, exist_ok=True)
        for spec in BUNDLES:
            cayley, inverse = (oracle.cyclic_product((spec.n // spec.a, spec.n // spec.b))
                               if spec.kind == "gabor" else oracle.cyclic_product((spec.n, spec.n)))
            group = fd.FiniteGroup(cayley, 0, inverse, label=spec.name)
            rep = fd.ProjectiveRep(group, fd.Multiplier(group, spec.cocycle()),
                                   oracle.dense(spec.pi_orbit, spec.dim),
                                   label=f"oracle-{spec.name}")
            bundle_path(outdir, spec).write_text(json.dumps(fd.serialize.rep_to_json(rep)))

    def check_built(self, built, seed, fd):
        pairs = {spec: value for spec, value in built.items() if spec not in LARGE}
        super().check_built(pairs, seed, fd)
        rng = np.random.default_rng([seed, 13])
        for spec in LARGE:
            x = gaussian(rng, spec.dim)
            expect(np.allclose(built[spec].matrices @ x, spec.pi_orbit(x), atol=1e-12),
                   f"{spec.name}: rep differs from the oracle construction")

    def calls(self, seed, outdir):
        rng = np.random.default_rng([seed, 3])
        out = []
        for spec in LARGE:
            for _ in range(COPIES.get(spec, 1)):
                x = gaussian(rng, spec.dim)
                out.append(Call(["classify", *spec.rep_args(), "--vector", vector_arg(x)],
                                check_classify(spec, x)))
        for spec in WINDOWS:
            for zak in ((False, True, True) if spec.n == 12 else (False, True)):
                x = gaussian(rng, spec.dim)
                argv = ["gabor", "--lattice", f"{spec.n},{spec.a},{spec.b}",
                        "--window", vector_arg(x)] + (["--zak"] if zak else [])
                out.append(Call(argv, check_window(spec, x, zak)))
        for spec in DUALITY:
            for _ in range(COPIES.get(spec, 3)):
                x = gaussian(rng, spec.dim)
                out.append(Call(["verify-duality", *spec.pair_args(), "--vector", vector_arg(x)],
                                check_duality(spec, x)))
        for n in VALIDATE_N:
            for _ in range(2 if n < 12 else 1):
                out.append(Call(["validate", "--multiplier", "heisenberg", "--N", str(n)],
                                check_multiplier(n)))
        for spec in BUNDLES:
            for _ in range(2):
                out.append(Call(["validate", "--rep-json", str(bundle_path(outdir, spec))],
                                check_bundle(spec)))
        for spec in DILATE:
            for mode in ("frame", "parseval"):
                x = deficient_vector(spec, rng)
                out.append(Call(["dilate", *spec.rep_args(), "--vector", vector_arg(x),
                                 "--mode", mode, "--seed", str(seed)],
                                check_dilate(spec, x, mode)))
        return [out[i] for i in rng.permutation(len(out))]


WORKLOADS = {w.name: w for w in (CertifyLadder(), SweepBulk(), CliOneshot())}
