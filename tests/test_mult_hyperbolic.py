"""``ltheory.mult_hyperbolic_complex`` writes ``psi_C`` as a signed permutation.

``reference_mult_hyperbolic`` below is the composite it replaced,
``psi_C = flip o (mu o (iota ox id))^-1``: five chain maps, their
composites and a degreewise integer inverse.  Over generated complexes,
free and not, with and without positions and idempotents, the two must
give the same complex ``D``, the same ``psi`` between the same endpoints,
or the same exception.
"""

import random

import pytest

from klab import chaincore, ltheory
from klab.chaincore import (ChainComplex, ChainMap, dual_complex, flip_map, iota, mu_map,
                            tensor_complex, tensor_map)
from klab.errors import IdentityFailure
from klab.fixtures import domination_instance, rand_complex
from klab.intmat import IntMatrix
from klab.ltheory import mult_hyperbolic_complex
from klab.transfer import finite_replacement

# -- reference: the composite ----------------------------------------------------


def reference_mult_hyperbolic(c):
    cd = dual_complex(c)
    D = tensor_complex(cd, c)
    mu_c = mu_map(cd, c).compose(tensor_map(iota(c), ChainMap.identity(cd)))
    mu_c_inv = mu_c.integer_inverse()
    if mu_c_inv is None:
        raise IdentityFailure("mu_C is not invertible over Z")
    psi = flip_map(c, cd).compose(mu_c_inv)
    psi.validate()
    return D, psi


# -- generated inputs ------------------------------------------------------------


def twin(c):
    """An equal complex with memos of its own, so that the two sides share
    no dual or tensor complex."""
    return ChainComplex(c.ranks, c.d_total, c.p_total, c.pos_total, check=False)


def with_positions(c, tag):
    return ChainComplex(c.ranks, c.d_total, positions={n: tuple((tag, n, i) for i in range(r))
                                                       for n, r in c.ranks.items()})


def with_identity_idempotents(rng, c):
    """Explicit identity idempotents at some degrees (the rest implicit)."""
    kept = [n for n in c.ranks if rng.random() < 0.7]
    return ChainComplex(c.ranks, c.d_total, {n: IntMatrix.identity(c.rank(n)) for n in kept})


def cases():
    rng = random.Random(1201)
    out = [("point", ChainComplex.point()), ("point at x", ChainComplex.point("x")),
           ("zero", ChainComplex.zero())]
    for k in range(140):
        c = rand_complex(rng, min_deg=rng.randint(-2, 1), max_len=4, max_rank=3)
        out.append(("chain", c))
        if k % 2:
            out.append(("positions", with_positions(c, k)))
        if k % 3 == 0:
            out.append(("identity idempotents", with_identity_idempotents(rng, c)))
    for k in range(60):
        C, D, i, r, h = domination_instance(rng, rng.randint(0, 2))
        out.append(("finite replacement", finite_replacement(C, D, i, r, h).P))
    return out


def complex_key(cx):
    return list(cx.ranks.items()), cx.d_total, cx.p_total, cx.pos_total


def outcome(fn, c):
    try:
        D, psi = fn(c)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    assert psi.target is D and psi.source is dual_complex(D)
    return complex_key(D), complex_key(psi.source), psi.degree, psi.mats


def test_matches_the_composite():
    seen, inputs = {}, cases()
    assert len(inputs) >= 300
    for kind, c in inputs:
        got, want = outcome(mult_hyperbolic_complex, twin(c)), outcome(reference_mult_hyperbolic, c)
        assert got == want, (kind, c.ranks)
        seen.setdefault(kind, set()).add(not isinstance(want[0], type))  # True: a value
    assert seen["finite replacement"] == {True, False}  # free and non-free outputs
    assert all(seen[kind] == {True} for kind in seen if kind != "finite replacement")


def test_non_free_complex_raises():
    c = ChainComplex({0: 2}, idem={0: IntMatrix.from_rows([[1, 0], [0, 0]])})
    with pytest.raises(IdentityFailure, match="^mu_C is not invertible over Z$"):
        mult_hyperbolic_complex(c)


def test_builds_no_composite(monkeypatch):
    """The construction forms no product, inverse, mu, flip or iota map.
    ``psi.validate()`` multiplies matrices; its calls are counted apart."""
    calls, validating = [], []

    def count(name, real):
        def wrapped(*args, **kwargs):
            if not validating:
                calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    real_validate = ChainMap.validate

    def validate(self):
        validating.append(self)
        try:
            return real_validate(self)
        finally:
            validating.pop()

    rng = random.Random(1202)
    complexes = [rand_complex(rng, min_deg=-1, max_len=4, max_rank=3) for _ in range(10)]
    for owner, name in ((IntMatrix, "__matmul__"), (IntMatrix, "integer_inverse"),
                        (ChainMap, "integer_inverse"), (ChainMap, "compose")):
        monkeypatch.setattr(owner, name, count(name, getattr(owner, name)))
    for name in ("mu_map", "flip_map", "iota", "tensor_map"):
        monkeypatch.setattr(chaincore, name, count(name, getattr(chaincore, name)))
    monkeypatch.setattr(ChainMap, "validate", validate)
    for c in complexes:
        D, psi = mult_hyperbolic_complex(c)
        assert psi.mats
    assert calls == []
    assert not hasattr(ltheory, "mu_map") and not hasattr(ltheory, "iota")
