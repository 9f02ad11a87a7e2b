"""Seeded inputs for the three workloads, built with numpy alone.

Every set is described by a :class:`Case`: how to call the program on it and
what the checks need to judge the answer (the vectors of every member, by
label, the class of every member, and a closed-form optimum when one is
known). Nothing here calls the program's fidelity or optimizer code.

The two see-saw workloads draw their problem classes once, from
``POOL_SEED``, and let the workload seed draw only their presentation: the
order of the bases, the order of the vectors in each basis and each
vector's phase. The measure and every see-saw trajectory are invariant
under these, so the seed changes the bits the program reads but not the
work it has to do. Drawing new random sets per seed would not do: a random
start that runs to the sweep cap costs as much as 15 typical sets, and over five
seeds of freshly drawn small-d corpora the throughput ranged from 7.9 to
19.5 sets/s on the same code.

The CLI workload is drawn from the seed in full (global unitary, duplicate
classes and kinds, spectra, item order): on a complete set of unbiased bases
every start converges within a few sweeps, so its cost does not hinge on
which inputs the seed picks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 0
SMALL_D_CELLS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
SMALL_D_PER_CELL = 16
SMALL_D_MUB = ((2, (0, 1)), (2, (0, 1, 2)), (3, (0, 1)), (3, (0, 1, 2)))
LARGE_D_RANDOM = ((6, 2), (7, 2), (8, 2), (6, 3), (7, 3))
LARGE_D_SHARED = (5, 6, 7)
CLI_DIMS = (3, 5, 7)
CLI_DOCS_PER_DIM = 36


@dataclass
class Case:
    """One set of observables and what its report must satisfy.

    ``vectors`` maps each member label to a (d, d) array whose rows span
    that member's eigenprojectors; ``classes`` maps each label to the
    commuting class it belongs to. ``closed_form`` is the exact optimal
    fidelity when the maths gives one, with ``closed_form_name`` naming it.
    ``members`` is the presentation passed to ``incompatibility()`` and
    ``doc_path`` the input document passed to ``qincompat measure``.
    """

    name: str
    dim: int
    vectors: dict
    classes: dict
    closed_form: float | None = None
    closed_form_name: str = ""
    members: list = field(default_factory=list)
    doc_path: str | None = None


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR factor of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def mub_vectors(dim: int) -> list[np.ndarray]:
    """All dim + 1 unbiased bases of a prime dimension, rows as vectors.

    Pauli eigenbases for d = 2; for odd prime d the computational basis and
    the quadratic-phase bases <k|psi_j^b> = w^(b k^2 + j k) / sqrt(d).
    """
    if dim == 2:
        s = 1.0 / np.sqrt(2.0)
        bases = [
            np.eye(2, dtype=complex),
            np.array([[s, s], [s, -s]], dtype=complex),
            np.array([[s, 1j * s], [s, -1j * s]], dtype=complex),
        ]
    else:
        k = np.arange(dim)
        omega = np.exp(2j * np.pi / dim)
        bases = [np.eye(dim, dtype=complex)]
        for b in range(1, dim + 1):
            bases.append(omega ** ((b * k[None, :] ** 2 + k[:, None] * k[None, :]) % dim) / np.sqrt(dim))
    for i, a in enumerate(bases):
        for c in bases[i + 1 :]:
            if np.max(np.abs(np.abs(a.conj() @ c.T) ** 2 - 1.0 / dim)) > 1e-12:
                raise RuntimeError(f"constructed bases in d={dim} are not unbiased")
    return bases


def mub_fidelity(n: int, dim: int) -> float:
    """Exact optimum for n unbiased bases: 1 - (1 - 1/n)(1 - 1/d)."""
    return 1.0 - (1.0 - 1.0 / n) * (1.0 - 1.0 / dim)


def shared_pair_fidelity(dim: int) -> float:
    """Exact optimum for a pair sharing one vector, unbiased on the rest."""
    return (dim + 2.0) / (2.0 * dim)


def qubit_fidelity(kets: np.ndarray) -> float:
    """Exact qubit optimum 1/2 + lambda_max(K) / (2 S) from the Bloch axes.

    ``kets`` holds the S signal states; K sums u u^T over their Bloch axes
    u. Measuring along K's top eigenvector attains it and no POVM beats it.
    """
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
    axes = np.einsum("ki,pij,kj->kp", kets.conj(), paulis, kets).real
    return 0.5 + float(np.linalg.eigvalsh(axes.T @ axes)[-1]) / (2.0 * kets.shape[0])


def present(bases: list[tuple[str, np.ndarray]], rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Same set, new presentation: shuffled bases, vector order and phases."""
    out = []
    for i in rng.permutation(len(bases)):
        label, vectors = bases[i]
        dim = vectors.shape[0]
        phases = np.exp(2j * np.pi * rng.random(dim))
        out.append((label, vectors[rng.permutation(dim)] * phases[:, None]))
    return out


def _case(name: str, bases: list[tuple[str, np.ndarray]], rng, closed_form=None, closed_form_name="") -> Case:
    shown = present(bases, rng)
    return Case(
        name=name,
        dim=bases[0][1].shape[0],
        vectors=dict(shown),
        classes={label: label for label, _ in bases},
        closed_form=closed_form,
        closed_form_name=closed_form_name,
        members=shown,
    )


def small_d_cases(seed: int, per_cell: int = SMALL_D_PER_CELL) -> list[Case]:
    """Random sets with d in {2, 3, 4}, N in {2, 3}, then partial unbiased sets."""
    pool = np.random.default_rng(POOL_SEED)
    rng = np.random.default_rng(seed)
    cases = []
    for dim, n in SMALL_D_CELLS:
        for i in range(per_cell):
            bases = [(f"r{j}", haar_unitary(dim, pool).T.copy()) for j in range(n)]
            name = f"random-d{dim}-n{n}-{i}"
            if dim == 2:
                kets = np.concatenate([v for _, v in bases])
                cases.append(_case(name, bases, rng, qubit_fidelity(kets), "qubit"))
            else:
                cases.append(_case(name, bases, rng))
    for dim, which in SMALL_D_MUB:
        all_bases = mub_vectors(dim)
        bases = [(f"m{b}", all_bases[b]) for b in which]
        cases.append(_case(f"mub-d{dim}-n{len(which)}", bases, rng, mub_fidelity(len(which), dim), "mub"))
    return cases


def large_d_cases(seed: int, shared_pair, random_sets=LARGE_D_RANDOM, shared_dims=LARGE_D_SHARED) -> list[Case]:
    """Random pairs and triples with d in {6, 7, 8}, then shared-eigenvector pairs.

    ``shared_pair`` is the program's ``shared_eigenvector_pair``; its output
    is checked against the closed form, not trusted.
    """
    pool = np.random.default_rng(POOL_SEED + 1)
    rng = np.random.default_rng(seed)
    cases = []
    for dim, n in random_sets:
        bases = [(f"r{j}", haar_unitary(dim, pool).T.copy()) for j in range(n)]
        cases.append(_case(f"random-d{dim}-n{n}", bases, rng))
    for dim in shared_dims:
        a, b = shared_pair(dim)
        bases = [("s0", np.array(a.vectors)), ("s1", np.array(b.vectors))]
        cases.append(_case(f"shared-d{dim}", bases, rng, shared_pair_fidelity(dim), "shared"))
    return cases


def _pairs(array: np.ndarray):
    return np.stack([array.real, array.imag], axis=-1).tolist()


def cli_cases(seed: int, out_dir: str, docs_per_dim: int = CLI_DOCS_PER_DIM) -> list[Case]:
    """Complete unbiased sets padded with commuting duplicates, one JSON file each.

    Each document holds the d + 1 bases of prime d under a global Haar
    unitary, plus 2(d + 1) duplicates, each of a random class: either a basis
    item with permuted, rephased vectors or an observable item, a Hermitian
    matrix with a random spectrum (gaps of at least 0.4) on that basis.
    Items are shuffled, so which member of a class is kept varies.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    cases = []
    for dim in CLI_DIMS:
        canonical = mub_vectors(dim)
        for i in range(docs_per_dim):
            u = haar_unitary(dim, rng)
            classes = [v @ u.T for v in canonical]
            items = [(f"c{c}", c, "basis", classes[c]) for c in range(dim + 1)]
            for j in range(2 * (dim + 1)):
                c = int(rng.integers(dim + 1))
                vectors = classes[c][rng.permutation(dim)] * np.exp(2j * np.pi * rng.random(dim))[:, None]
                if rng.random() < 0.5:
                    items.append((f"c{c}-dup{j}", c, "basis", vectors))
                else:
                    spectrum = np.cumsum(0.4 + rng.random(dim)) - 0.7 * dim
                    matrix = vectors.T @ np.diag(spectrum) @ vectors.conj()
                    items.append((f"c{c}-dup{j}", c, "observable", (matrix + matrix.conj().T) / 2))
            order = rng.permutation(len(items))
            doc_items = []
            for k in order:
                label, _, kind, data = items[k]
                key = "vectors" if kind == "basis" else "matrix"
                doc_items.append({"type": kind, "label": label, key: _pairs(data)})
            path = os.path.join(out_dir, f"mub-d{dim}-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                # json.dumps, unlike json.dump, runs in the C encoder
                handle.write(json.dumps({"dim": dim, "items": doc_items}))
            cases.append(
                Case(
                    name=f"cli-mub-d{dim}-{i}",
                    dim=dim,
                    vectors={label: classes[c] for label, c, _, _ in items},
                    classes={label: f"c{c}" for label, c, _, _ in items},
                    closed_form=mub_fidelity(dim + 1, dim),
                    closed_form_name="mub",
                    doc_path=path,
                )
            )
    return cases
