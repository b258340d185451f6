"""Symmetric and quadratic forms, the multiplicative hyperbolic
construction, ultra-quadratic Poincare complexes, and signatures.

L-classes are represented over the integers via the signature and as
explicit form or complex data elsewhere; the chain-level statements are
verified at the level of their exact proof identities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .chaincore import (ChainComplex, ChainHomotopy, ChainMap, _dual_total, _tensor,
                        dual_complex)
from .control import ControlSpace, check_control
from .errors import DegenerateForm, IdentityFailure, InputError
from .intmat import IntMatrix, sign, symmetric_diagonalize


class SymmetricForm:
    """Gram matrix ``phi = phi^T`` on a free module of the given rank."""

    def __init__(self, rank: int, gram: IntMatrix):
        if (gram.rows, gram.cols) != (rank, rank):
            raise InputError("Gram matrix shape mismatch")
        if not gram.is_symmetric():
            raise InputError("Gram matrix is not symmetric")
        self.rank = rank
        self.gram = gram

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
    one = IntMatrix.identity(rank)
    return SymmetricForm(2 * rank, IntMatrix.from_blocks([[None, one], [one, None]],
                                                         [rank, rank], [rank, rank]))


def mult_hyperbolic_form(n: int) -> SymmetricForm:
    """Multiplicative hyperbolic form on ``(Z^n)^* ox Z^n``.

    Basis pairs ``(i, j)`` in lex order; the pairing of ``e_i^* ox e_j``
    with ``e_k^* ox e_l`` is ``delta_il delta_kj``, the Gram matrix of
    the trace form under the endomorphism identification.
    """
    if n < 0:
        raise InputError("negative rank")
    return SymmetricForm(n * n, IntMatrix(n * n, n * n, {(i * n + j, j * n + i): 1
                                                        for i in range(n) for j in range(n)}))


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
    basis = IntMatrix(n * n, n * n, {(i * n + j, col): 1 for col, (i, j) in enumerate(order)})
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
    # psi^-*, then iota^{-1} = (-1)^n on C^-*_n, the dual of C_{-n}
    return ChainMap(dual_complex(C), C, 0, _dual_total(psi.total, 0, psi.source, C, True),
                    check=False)


class PoincareWitness:
    """Homotopy-inverse data for the symmetrization of an ultra-quadratic
    complex: ``inverse``, ``h: inverse o sigma ~ id``, ``k: sigma o
    inverse ~ id``."""

    def __init__(self, inverse: ChainMap, h: ChainHomotopy, k: ChainHomotopy):
        self.inverse = inverse
        self.h = h
        self.k = k


class UltraQuadraticComplex:
    """``psi: C^-* -> C`` whose symmetrization is an equivalence."""

    def __init__(self, C: ChainComplex, psi: ChainMap, witness: Optional[PoincareWitness] = None):
        self.C = C
        self.psi = psi
        self.witness = witness

    def symmetrization(self) -> ChainMap:
        return self.psi + symmetrized_dual(self.psi)


def mult_hyperbolic_complex(c: ChainComplex) -> Tuple[ChainComplex, ChainMap]:
    """``D = C^-* ox C`` with the flip-induced symmetric structure.

    ``psi_C = flip o mu_C^{-1}: D^-* -> D``, where ``mu_C`` composes the
    double-dual identification with ``mu_{C^-*, C}`` (sign conventions
    in ``chaincore``).  Written out, it is the signed permutation that
    takes block ``(p, q)`` of ``(D^-*)_n = (D_{-n})^*`` (``p + q = -n``,
    ``C^-*_p ox C_q``), basis ``(i, t)``, to block ``(-q, -p)`` of
    ``D_n``, basis ``(t, i)``, with sign ``(-1)^p``.  ``mu_C`` is
    invertible over ``Z`` only on a free complex: an idempotent other
    than the identity is singular.
    """
    if not c.is_free():
        raise IdentityFailure("mu_C is not invertible over Z")
    layout, D = _tensor(dual_complex(c), c)
    n, at, degs = c.size, layout.index, c._basis()[0]
    # D^-* keeps the index order of D: e_i ox f_t goes to e_t ox f_i, sign (-1)^{|e_i|}
    psi = ChainMap(dual_complex(D), D, 0, IntMatrix._trusted(D.size, D.size, {
        (at[t * n + i], at[i * n + t]): -1 if degs[i] % 2 else 1
        for i in range(n) for t in range(n)}), check=False)
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


class LemmaAReport:
    def __init__(self, signature: int, euler: int, psi_symmetric: bool, psi_invertible: bool):
        self.signature = signature
        self.euler = euler
        self.psi_symmetric = psi_symmetric
        self.psi_invertible = psi_invertible

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
    invertible = psi.integer_inverse() is not None
    form = degree_zero_form(D, psi)
    sig = signature(form)
    return LemmaAReport(sig, c.euler_characteristic(), psi_symmetric, invertible)


class UQReport:
    def __init__(self, items: List[Tuple[str, bool, str]]):
        self.items = items

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
            pieces = [("psi", u.psi, dual_complex(u.C), u.C)]
            if u.witness is not None:
                pieces.append(("inverse", u.witness.inverse, u.C, dual_complex(u.C)))
                pieces.append(("h", u.witness.h.as_map(),
                               dual_complex(u.C), dual_complex(u.C)))
                pieces.append(("k", u.witness.k.as_map(), u.C, u.C))
            for name, mp, src, tgt in pieces:
                ok = (all(src.pos(n) is not None and tgt.pos(n + mp.degree) is not None
                          for n in mp.mats)
                      and check_control(mp.retarget(src, tgt), eps, S, space, backend))
                record(f"control-{name}", ok,
                       "" if ok else "support escapes the (eps,S) bound")
    return UQReport(items)
