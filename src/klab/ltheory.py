"""Symmetric and quadratic forms, the multiplicative hyperbolic
construction, ultra-quadratic Poincare complexes, and signatures.

L-classes are represented over the integers via the signature and as
explicit form or complex data elsewhere; the chain-level statements are
verified at the level of their exact proof identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .chaincore import (ChainComplex, ChainHomotopy, ChainMap, dual_complex,
                        flip_map, iota, mu_map, tensor_complex, tensor_map)
from .control import ControlSpace, ControlledMorphism, GeometricModule
from .errors import DegenerateForm, IdentityFailure, InputError
from .intmat import IntMatrix, sign, symmetric_diagonalize


@dataclass
class SymmetricForm:
    """Gram matrix ``phi = phi^T`` on a free module of the given rank."""

    rank: int
    gram: IntMatrix

    def __post_init__(self):
        if (self.gram.rows, self.gram.cols) != (self.rank, self.rank):
            raise InputError("Gram matrix shape mismatch")
        if not self.gram.is_symmetric():
            raise InputError("Gram matrix is not symmetric")

    def direct_sum(self, other: "SymmetricForm") -> "SymmetricForm":
        return SymmetricForm(self.rank + other.rank, self.gram.direct_sum(other.gram))


def signature(form: SymmetricForm) -> int:
    """Sylvester signature by exact symmetric diagonalization over Q."""
    diag = symmetric_diagonalize(form.gram)
    if any(v == 0 for v in diag):
        raise DegenerateForm("form is degenerate over the rationals")
    return sum(1 if v > 0 else -1 for v in diag)


def hyperbolic_form(rank: int) -> SymmetricForm:
    """Standard hyperbolic form ``H(Z^rank)`` with Gram ``[[0, I], [I, 0]]``."""
    gram = IntMatrix.zeros(2 * rank, 2 * rank)
    for i in range(rank):
        gram.entries[(i, rank + i)] = 1
        gram.entries[(rank + i, i)] = 1
    return SymmetricForm(2 * rank, gram)


def mult_hyperbolic_form(n: int) -> SymmetricForm:
    """Multiplicative hyperbolic form on ``(Z^n)^* ox Z^n``.

    Basis pairs ``(i, j)`` in lex order; the pairing of ``e_i^* ox e_j``
    with ``e_k^* ox e_l`` is ``delta_il delta_kj``, the Gram matrix of
    the trace form under the endomorphism identification.
    """
    if n < 0:
        raise InputError("negative rank")
    gram = IntMatrix.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            gram.entries[(i * n + j, j * n + i)] = 1
    return SymmetricForm(n * n, gram)


def sum_decomposition_witness(p: int, q: int) -> Tuple[IntMatrix, SymmetricForm]:
    """Base change conjugating ``H_ox(Z^{p+q})`` onto
    ``H_ox(Z^p) + H_ox(Z^q) + H(Z^{pq})``.

    Returns the (permutation) base-change matrix ``B`` and the target
    block form, with ``B^T G B`` equal to the target Gram exactly.
    """
    n = p + q
    source = mult_hyperbolic_form(n)
    # target order: both indices < p, both >= p, then the two mixed groups
    order: List[Tuple[int, int]] = []
    order += [(i, j) for i in range(p) for j in range(p)]
    order += [(i, j) for i in range(p, n) for j in range(p, n)]
    mixed = [(i, j) for i in range(p, n) for j in range(p)]
    order += mixed
    order += [(j, i) for (i, j) in mixed]
    basis = IntMatrix.zeros(n * n, n * n)
    for col, (i, j) in enumerate(order):
        basis.entries[(i * n + j, col)] = 1
    target = mult_hyperbolic_form(p).direct_sum(mult_hyperbolic_form(q))
    target = target.direct_sum(hyperbolic_form(p * q))
    got = basis.transpose() @ source.gram @ basis
    if got != target.gram:
        raise IdentityFailure("decomposition congruence failed")
    return basis, target


# -- chain-level multiplicative hyperbolic complex --------------------------


def symmetrized_dual(psi: ChainMap) -> ChainMap:
    """``psi^-*`` read back as a map ``C^-* -> C`` through iota.

    For ``psi: C^-* -> C`` of degree 0 this is ``iota^{-1} o psi^-*``,
    concretely ``(-1)^n (psi_{-n})^T`` in degree ``n``; in degree 0 it is
    the classical transpose.
    """
    C = psi.target
    if psi.degree != 0:
        raise InputError("symmetrized dual needs a degree-0 map")
    src = dual_complex(C)
    mats = {}
    for m, mat in psi.mats.items():
        n = -m
        mats[n] = mat.transpose().scale(sign(n))
    return ChainMap(src, C, 0, mats, check=False)


@dataclass
class PoincareWitness:
    """Homotopy-inverse data for the symmetrization of an ultra-quadratic
    complex: ``inverse``, ``h: inverse o sigma ~ id``, ``k: sigma o
    inverse ~ id``."""

    inverse: ChainMap
    h: ChainHomotopy
    k: ChainHomotopy


@dataclass
class UltraQuadraticComplex:
    """``psi: C^-* -> C`` whose symmetrization is an equivalence."""

    C: ChainComplex
    psi: ChainMap
    witness: Optional[PoincareWitness] = None

    def symmetrization(self) -> ChainMap:
        return self.psi + symmetrized_dual(self.psi)


def mult_hyperbolic_complex(c: ChainComplex) -> Tuple[ChainComplex, ChainMap]:
    """``D = C^-* ox C`` with the flip-induced symmetric structure.

    ``psi_C = flip o mu_C^{-1}: D^-* -> D`` where ``mu_C`` composes the
    double-dual identification with ``mu_{C^-*, C}``; all blocks are
    signed permutations, so the inverse is exact.
    """
    cd = dual_complex(c)
    D = tensor_complex(cd, c)
    # mu_C : C ox C^-* -> (C^-* ox C)^-*  via  iota ox id then mu
    mu = mu_map(cd, c)
    i_tensor = tensor_map(iota(c), ChainMap.identity(cd))
    mu_c = mu.compose(i_tensor)  # C ox C^-* -> (C^-* ox C)^-*
    # invert mu_c degreewise (signed permutation blocks)
    inv_mats: Dict[int, IntMatrix] = {}
    for n in set(mu_c.mats):
        m = mu_c.mat(n)
        inv = m.integer_inverse()
        if inv is None:
            raise IdentityFailure("mu_C is not invertible over Z")
        inv_mats[n] = inv
    mu_c_inv = ChainMap(mu_c.target, mu_c.source, 0, inv_mats, check=False)
    flip = flip_map(c, cd)  # C ox C^-* -> C^-* ox C
    psi = flip.compose(mu_c_inv)  # (C^-* ox C)^-* -> C^-* ox C
    psi.validate()
    return D, psi


def degree_zero_form(D: ChainComplex, psi: ChainMap) -> SymmetricForm:
    """Gram matrix of the degree-0 component of a symmetric structure."""
    mat = psi.mat(0)
    if mat.rows != mat.cols:
        raise InputError("degree-0 component is not square")
    if not mat.is_symmetric():
        raise IdentityFailure("degree-0 form is not symmetric")
    return SymmetricForm(mat.rows, mat)


@dataclass
class LemmaAReport:
    signature: int
    euler: int
    psi_symmetric: bool
    psi_invertible: bool

    def ok(self) -> bool:
        return (self.signature == self.euler and self.psi_symmetric
                and self.psi_invertible)


def lemmaA_check(c: ChainComplex) -> LemmaAReport:
    """Signature of the degree-zero form of ``H_ox(C)`` against ``chi(C)``.

    The chain-level statement reduces, at the degree-zero endpoint of its
    proof, to the direct sum of the forms ``(-1)^i psi_{C_i}``; the
    signature of that form must equal the Euler characteristic.
    """
    if not c.is_free():
        raise InputError("endpoint check needs a free complex")
    D, psi = mult_hyperbolic_complex(c)
    sym = symmetrized_dual(psi)
    psi_symmetric = sym == psi
    invertible = all(psi.mat(n).integer_inverse() is not None
                     for n in D.ranks)
    form = degree_zero_form(D, psi)
    sig = signature(form)
    return LemmaAReport(sig, c.euler_characteristic(), psi_symmetric, invertible)


@dataclass
class UQReport:
    items: List[Tuple[str, bool, str]]

    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.items)

    def failures(self) -> List[str]:
        return [f"{name}: {note}" for name, okay, note in self.items if not okay]


def verify_ultraquadratic(u: UltraQuadraticComplex, eps: Optional[Fraction] = None,
                          S=None, backend=None, space: Optional[ControlSpace] = None
                          ) -> UQReport:
    """Exact audit of an ultra-quadratic (eps, S)-Poincare complex.

    Checks the chain-map property of ``psi``, the witness homotopy
    identities for ``psi + psi^-*`` (degenerating to matrix inverses for
    complexes concentrated in degree 0), and the control certificates of
    ``psi`` and all witness data when ``eps``/``S`` are supplied.
    """
    items: List[Tuple[str, bool, str]] = []

    def record(name: str, okay: bool, note: str = ""):
        items.append((name, okay, note))

    try:
        u.psi.validate()
        record("psi-chain-map", True)
    except ValueError as exc:
        record("psi-chain-map", False, str(exc))
    sigma = u.symmetrization()
    degrees = sorted(u.C.ranks)
    concentrated = degrees == [0] or not degrees
    if u.witness is None:
        if not concentrated:
            record("witness", False, "missing witness for a non-form complex")
        else:
            inv = sigma.mat(0).integer_inverse()
            record("symmetrization-invertible", inv is not None,
                   "matrix not invertible over the backend" if inv is None else "")
    else:
        w = u.witness
        ok_h = (w.h.source_map == w.inverse.compose(sigma)
                and w.h.target_map == ChainMap.identity(sigma.source)
                and w.h.holds())
        record("witness-h", ok_h, "" if ok_h else "h is not a homotopy inverse o sigma ~ id")
        ok_k = (w.k.source_map == sigma.compose(w.inverse)
                and w.k.target_map == ChainMap.identity(sigma.target)
                and w.k.holds())
        record("witness-k", ok_k, "" if ok_k else "k is not a homotopy sigma o inverse ~ id")
    if eps is not None or S is not None:
        if space is None or u.C.positions is None:
            record("control", False, "control requested but no positions/space")
        else:
            from .control import check_control
            pieces = [("psi", u.psi, dual_complex(u.C), u.C)]
            if u.witness is not None:
                pieces.append(("inverse", u.witness.inverse, u.C, dual_complex(u.C)))
                pieces.append(("h", u.witness.h.as_map(),
                               dual_complex(u.C), dual_complex(u.C)))
                pieces.append(("k", u.witness.k.as_map(), u.C, u.C))
            for name, mp, src, tgt in pieces:
                ok = True
                for n, mat in mp.mats.items():
                    sp = src.pos(n)
                    tp = tgt.pos(n + mp.degree)
                    if sp is None or tp is None:
                        ok = False
                        break
                    cm = ControlledMorphism(GeometricModule(tuple(sp)),
                                            GeometricModule(tuple(tp)), mat)
                    if not check_control(cm, eps, S, space, backend):
                        ok = False
                        break
                record(f"control-{name}", ok,
                       "" if ok else "support escapes the (eps,S) bound")
    return UQReport(items)
