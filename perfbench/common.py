"""Requests, input files and output checks shared by the workloads.

Inputs are written in opintlab's wire formats by this module's own writers,
and reports are read back with its own readers, so a check never trusts the
library's JSON code.  A failed check returns a reason string; reasons that
start with ``cert:`` mark a false certificate or a wrong transform (the run
is then not correct), every other reason marks a failed request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Outcome:
    """What a check found: failure reason (or None), rounded digest, kept value."""

    reason: str | None
    digest: str
    keep: object = None


@dataclass
class Request:
    """One request: ``call`` is timed, ``check`` judges what it returned."""

    rid: str
    klass: str  # "<group>/<sub>", for per-class medians
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    requests: list
    # Checks that compare the outputs of several requests of one round:
    # takes {rid: kept value}, returns {rid: reason} for the ones that fail.
    round_check: Callable[[dict], dict]
    tail_pct: float  # fixed per workload, so runs compare the same percentile
    min_rounds: int  # rounds needed for >= 10 samples beyond tail_pct
    warmup: Callable[[], None]
    largest_grid_bytes: int
    # Independent input sets a run cycles through; more sets average out
    # input-dependent solver effort across seeds.
    input_sets: int = 1


def digest(*numbers) -> str:
    """Short hash of numbers rounded to 6 significant digits."""
    text = ",".join(f"{float(x):.6g}" for x in numbers)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def matrix_digest(mat: np.ndarray) -> str:
    return digest(np.linalg.norm(mat), mat.real.sum(), mat.imag.sum())


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def matrix_obj(mat) -> dict:
    mat = np.asarray(mat, dtype=np.complex128)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "re": mat.real.tolist(), "im": mat.imag.tolist()}


def matrix_from(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def grid_obj(axes, values) -> dict:
    values = np.asarray(values, dtype=np.complex128)
    return {
        "order": values.ndim,
        "axes_re": [np.real(a).tolist() for a in axes],
        "axes_im": [np.imag(a).tolist() for a in axes],
        "shape": list(values.shape),
        "values_re": values.real.ravel().tolist(),
        "values_im": values.imag.ravel().tolist(),
    }


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shared_real_spectrum(rng, n: int) -> np.ndarray:
    """Eigenvalues in groups of up to four that share one real part."""
    groups = max(1, n // 4)
    real = np.sort(rng.uniform(-2.0, 2.0, size=groups))
    return real[np.arange(n) % groups] + 1j * rng.uniform(-2.0, 2.0, size=n)


def normal_matrix(rng, n: int, spectrum=None) -> tuple[np.ndarray, np.ndarray]:
    """A normal matrix with a random eigenbasis; returns (matrix, spectrum)."""
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n) if spectrum is None else spectrum
    u = random_unitary(rng, n)
    return (u * lam) @ u.conj().T, lam


def trig_symbol(rng, axes, terms: int = 3) -> np.ndarray:
    """Values on the axis product of a random real trigonometric symbol.

    The values depend on the eigenvalues only, never on their order.
    """
    mesh = np.meshgrid(*[np.asarray(a) for a in axes], indexing="ij")
    phase = np.zeros(mesh[0].shape)
    out = np.zeros(mesh[0].shape)
    for _ in range(terms):
        phase[...] = rng.uniform(0.0, 2.0 * np.pi)
        for m in mesh:
            phase += rng.normal(0.0, 1.5) * m.real + rng.normal(0.0, 1.5) * m.imag
        out += rng.uniform(0.5, 1.0) * np.cos(phase)
    return out / terms


def same_spectrum(found, expected, tol: float) -> bool:
    """Multiset equality of two eigenvalue lists within ``tol``."""
    found = np.asarray(found)
    expected = np.asarray(expected)
    if found.shape != expected.shape:
        return False
    left = found[np.lexsort((found.imag, np.round(found.real, 6)))]
    right = expected[np.lexsort((expected.imag, np.round(expected.real, 6)))]
    return bool(np.max(np.abs(left - right)) <= tol)


def hs_bound(sup: float, *mats) -> float:
    """Contraction bound on the Hilbert-Schmidt norm of a transform's output."""
    bound = sup
    for mat in mats:
        bound *= float(np.linalg.norm(mat))
    return bound


class CliRunner:
    """Runs ``opintlab.cli.main`` in-process with the report written to a file.

    ``main`` is looked up on the module at every call, so the tracer's
    wrapper is used when it is installed.
    """

    def __init__(self, cli_module, workdir: str):
        self.cli = cli_module
        self.workdir = workdir

    def request(self, rid: str, klass: str, argv: list, check) -> Request:
        out = os.path.join(self.workdir, f"report-{rid}.json")

        def call():
            with contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(list(argv) + ["--out", out])

        def judge(code) -> Outcome:
            report = None
            if os.path.exists(out):
                report = read_json(out)
                os.remove(out)
            if report is None:
                return Outcome(f"exit{code}", digest(code))
            return check(code, report["outputs"])

        return Request(rid, klass, call, judge)

    def run(self, argv: list) -> int:
        """Untimed call, for warm-up."""
        out = os.path.join(self.workdir, "warmup.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(argv) + ["--out", out])
        if os.path.exists(out):
            os.remove(out)
        return code


def first_reason(hard, code: int, status: str, soft) -> str | None:
    """Failure reason by priority: false certificate, exit code, then soft check."""
    for name, failed in hard:
        if failed:
            return f"cert:{name}"
    if code != 0:
        return f"exit{code}:{status}"
    for name, failed in soft:
        if failed:
            return name
    return None
