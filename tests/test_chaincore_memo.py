"""The dual and tensor memo of ``klab.chaincore``.

``dual_complex(c)`` and ``tensor_complex(c, d)`` are memoised on ``c``,
built once and held by ``c``.  The reference constructions below build
every endpoint afresh on each call, as ``chaincore`` did before the
memo; the memoised constructions must agree with them exactly and hand
back one object on every call.  A derived complex lives as long as its
first factor, holds no factor and forms no reference cycle, so
reference counting alone frees it with that factor.
"""

import random
import weakref

from hypothesis import given, settings, strategies as st

from klab import chaincore
from klab.chaincore import (ChainComplex, ChainMap, TensorLayout, dual_complex, dual_map,
                            flip_map, iota, mu_map, tensor_complex, tensor_map)
from klab.fixtures import rand_complex, rand_matrix
from klab.intmat import IntMatrix, sign

# -- reference constructions: fresh builds, no memo ----------------------------


class RefLayout:
    def __init__(self, c, d):
        self.c = c
        self.d = d
        self.blocks = {}
        for p in c.degrees():
            for q in d.degrees():
                self.blocks.setdefault(p + q, []).append((p, q))
        for n in self.blocks:
            self.blocks[n].sort()
        self.offsets = {}
        self.ranks = {}
        for n, pairs in self.blocks.items():
            off = 0
            for (p, q) in pairs:
                self.offsets[(p, q)] = off
                off += c.rank(p) * d.rank(q)
            self.ranks[n] = off

    def block_rank(self, p, q):
        return self.c.rank(p) * self.d.rank(q)


def ref_dual(c):
    ranks = {-n: r for n, r in c.ranks.items()}
    diff = {}
    for n in ranks:
        d = c.d(-n + 1)
        if not d.is_zero():
            diff[n] = d.transpose().scale(sign(n))
    idem = {-n: c.p(n).transpose() for n in c.ranks} if c.p_total is not None else None
    positions = {-n: c.pos(n) for n in c.ranks} if c.pos_total is not None else None
    return ChainComplex(ranks, diff, idem, positions, check=False)


def ref_iota(c):
    dd = ref_dual(ref_dual(c))
    return ChainMap(c, dd, 0, {n: c.p(n).scale(sign(n)) for n in c.ranks}, check=False)


def ref_tensor(c, d):
    """``d = d_C ox p_D + (-1)^p p_C ox d_D``: the identity of ``(C, p)`` is ``p``."""
    layout = RefLayout(c, d)
    offsets = layout.offsets
    diff = {}
    for n, pairs in layout.blocks.items():
        ent = {}
        for (p, q) in pairs:
            soff = offsets[(p, q)]
            parts = [((p - 1, q), c.d(p).kron(d.p(q))),
                     ((p, q - 1), c.p(p).kron(d.d(q)).scale(sign(p)))]
            for target, blk in parts:
                toff = offsets.get(target)
                if toff is not None:
                    for (i, j), v in blk.entries.items():
                        ent[(toff + i, soff + j)] = v
        if ent:
            diff[n] = IntMatrix(layout.ranks.get(n - 1, 0), layout.ranks[n], ent)
    idem = None
    if c.p_total is not None or d.p_total is not None:
        idem = {}
        for n, pairs in layout.blocks.items():
            ent = {}
            for (p, q) in pairs:
                off = offsets[(p, q)]
                for (i, j), v in c.p(p).kron(d.p(q)).entries.items():
                    ent[(off + i, off + j)] = v
            idem[n] = IntMatrix(layout.ranks[n], layout.ranks[n], ent)
    positions = None
    if c.pos_total is not None and d.pos_total is not None:
        positions = {n: tuple((a, b) for (p, q) in pairs for a in c.pos(p) for b in d.pos(q))
                     for n, pairs in layout.blocks.items()}
    return ChainComplex(layout.ranks, diff, idem, positions, check=False)


def ref_tensor_map(f, g):
    src = RefLayout(f.source, g.source)
    tgt = RefLayout(f.target, g.target)
    k = f.degree + g.degree
    mats = {}
    for n, pairs in src.blocks.items():
        ent = {}
        for (p, q) in pairs:
            toff = tgt.offsets.get((p + f.degree, q + g.degree))
            if toff is None:
                continue
            soff = src.offsets[(p, q)]
            for (i, j), v in f.mat(p).kron(g.mat(q)).entries.items():
                ent[(toff + i, soff + j)] = sign(g.degree * p) * v
        if ent:
            mats[n] = IntMatrix(tgt.ranks.get(n + k, 0), src.ranks[n], ent)
    return ChainMap(ref_tensor(f.source, g.source), ref_tensor(f.target, g.target),
                    k, mats, check=False)


def ref_flip(c, d):
    src = RefLayout(c, d)
    tgt = RefLayout(d, c)
    mats = {}
    for n, pairs in src.blocks.items():
        ent = {}
        for (p, q) in pairs:
            soff, toff = src.offsets[(p, q)], tgt.offsets[(q, p)]
            rc, rd = c.rank(p), d.rank(q)
            for i in range(rc):
                for j in range(rd):
                    ent[(toff + j * rc + i, soff + i * rd + j)] = sign(p * q)
        mats[n] = IntMatrix(tgt.ranks.get(n, 0), src.ranks[n], ent)
    return ChainMap(ref_tensor(c, d), ref_tensor(d, c), 0, mats, check=False)


def ref_mu(c, d):
    cd, dd = ref_dual(c), ref_dual(d)
    src = RefLayout(cd, dd)
    tgt = RefLayout(c, d)
    tgt_cx = ref_dual(ref_tensor(c, d))
    mats = {}
    for n, pairs in src.blocks.items():
        ent = {}
        for (p, q) in pairs:
            toff = tgt.offsets.get((-p, -q))
            if toff is None:
                continue
            soff = src.offsets[(p, q)]
            for t in range(src.block_rank(p, q)):
                ent[(toff + t, soff + t)] = sign(p * q)
        mats[n] = IntMatrix(tgt_cx.rank(n), src.ranks[n], ent)
    return ChainMap(ref_tensor(cd, dd), tgt_cx, 0, mats, check=False)


# -- generated inputs --------------------------------------------------------


def decorated(rng, c, positions, idempotents, tag):
    """``c`` with labelled basis vectors and, optionally, a zero summand
    cut away by the idempotent ``1 + 0`` in every degree."""
    ranks, idem = dict(c.ranks), None
    diff = {n: m for n in c.ranks if not (m := c.d(n)).is_zero()}
    if idempotents:
        extra = {n: rng.randint(0, 2) for n in ranks}
        idem = {}
        for n, r in c.ranks.items():
            ranks[n] = r + extra[n]
            idem[n] = IntMatrix.identity(r).direct_sum(IntMatrix.zeros(extra[n], extra[n]))
            if n in diff:
                diff[n] = diff[n].direct_sum(IntMatrix.zeros(extra[n - 1], extra[n]))
    pos = None
    if positions:
        pos = {n: tuple((tag, rng.randint(0, 2)) for _ in range(r)) for n, r in ranks.items()}
    return ChainComplex(ranks, diff, idem, pos)


def graded_map(rng, c, d, k):
    """A graded map of degree ``k``; the constructions here need no chain map."""
    return ChainMap(c, d, k, {n: rand_matrix(rng, d.rank(n + k), c.rank(n), 0.5, -1, 1)
                              for n in c.ranks}, check=False)


def same_complex(a, b):
    """Equal ranks, and degree by degree equal blocks, idempotents and positions."""
    return (a.ranks == b.ranks and (a.p_total is None) == (b.p_total is None)
            and (a.pos_total is None) == (b.pos_total is None)
            and all(a.d(n) == b.d(n) and a.p(n) == b.p(n) and a.pos(n) == b.pos(n)
                    for n in a.ranks))


def same_map(f, g):
    return (f.degree == g.degree and f.mats == g.mats
            and same_complex(f.source, g.source) and same_complex(f.target, g.target))


def pair(seed, lo_c, lo_d, positions, idempotents):
    rng = random.Random(seed)
    c = decorated(rng, rand_complex(rng, min_deg=lo_c, max_len=3, max_rank=3),
                  positions, idempotents, "c")
    d = decorated(rng, rand_complex(rng, min_deg=lo_d, max_len=3, max_rank=3),
                  positions, idempotents, "d")
    return rng, c, d


INPUTS = (st.integers(0, 2 ** 32), st.integers(-2, 1), st.integers(-2, 1),
          st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(*INPUTS)
def test_memoised_constructions_match_fresh_builds(seed, lo_c, lo_d, positions, idempotents):
    rng, c, d = pair(seed, lo_c, lo_d, positions, idempotents)
    f = graded_map(rng, c, d, rng.randint(-1, 1))
    g = graded_map(rng, d, c, rng.randint(-1, 1))
    held = []  # a second round of calls is served by the memo
    for _ in range(2):
        held += [dual_complex(c), tensor_complex(c, d), tensor_complex(d, c)]
        assert same_complex(dual_complex(c), ref_dual(c))
        assert same_complex(dual_complex(dual_complex(d)), ref_dual(ref_dual(d)))
        assert same_complex(tensor_complex(c, d), ref_tensor(c, d))
        assert same_complex(tensor_complex(c, c), ref_tensor(c, c))
        fd = dual_map(f)  # its matrices do not touch the memo, its endpoints do
        assert same_complex(fd.source, ref_dual(d)) and same_complex(fd.target, ref_dual(c))
        assert same_map(tensor_map(f, g), ref_tensor_map(f, g))
        assert same_map(tensor_map(dual_map(g), f), ref_tensor_map(dual_map(g), f))
        assert same_map(flip_map(c, d), ref_flip(c, d))
        assert same_map(mu_map(c, d), ref_mu(c, d))
        assert same_map(iota(c), ref_iota(c))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(*INPUTS)
def test_one_object_while_held(seed, lo_c, lo_d, positions, idempotents):
    rng, c, d = pair(seed, lo_c, lo_d, positions, idempotents)
    cd, dd = dual_complex(c), dual_complex(d)
    t = tensor_complex(c, d)
    assert dual_complex(c) is cd and tensor_complex(c, d) is t
    assert tensor_complex(d, c) is not t
    twin = ChainComplex(d.ranks, d.d_total, d.p_total, d.pos_total)  # equal, not identical
    assert tensor_complex(c, twin) is not t and same_complex(tensor_complex(c, twin), t)
    f = graded_map(rng, c, d, 0)
    g = graded_map(rng, d, c, 0)
    assert tensor_map(f, g).source is t
    assert tensor_map(f, g).target is tensor_complex(d, c)
    assert flip_map(c, d).source is t
    assert mu_map(c, d).source is tensor_complex(cd, dd)
    assert mu_map(c, d).target is dual_complex(t)
    assert iota(c).target is dual_complex(cd)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(*INPUTS)
def test_derived_complexes_live_with_their_factors(seed, lo_c, lo_d, positions, idempotents):
    rng, c, d = pair(seed, lo_c, lo_d, positions, idempotents)
    m = tensor_map(graded_map(rng, c, d, 0), graded_map(rng, d, c, 0))
    derived = [weakref.ref(x) for x in (dual_complex(c), tensor_complex(c, d),
                                        dual_complex(tensor_complex(c, d)), m.target)]
    del m
    assert all(r() is not None for r in derived)
    # no cycle forms: reference counting alone frees them with the factors
    del c, d
    assert [r() for r in derived] == [None] * len(derived)
    # a derived complex holds no factor either
    rng, c, d = pair(seed, lo_c, lo_d, positions, idempotents)
    kept = [dual_complex(c), tensor_complex(c, d), tensor_complex(d, c)]
    factors = [weakref.ref(c), weakref.ref(d)]
    del c, d
    assert [r() for r in factors] == [None, None]
    assert all(x.ranks for x in kept)


def test_tensor_memo_tells_a_dead_factor_from_a_new_one():
    c = rand_complex(random.Random(3), max_len=3, max_rank=3)
    d = ChainComplex({0: 1})
    t = tensor_complex(c, d)
    for rank in range(2, 40):  # a new complex may take the dead one's id
        dead = id(d)
        del d
        d = ChainComplex({0: rank})
        assert tensor_complex(c, d) is not t
        assert tensor_complex(c, d).ranks == {n: r * rank for n, r in c.ranks.items()}
        if id(d) == dead:
            break


def test_chain_check_builds_each_dual_and_tensor_once(monkeypatch):
    """The calls of one check of perfbench's ``chain`` workload build the
    duals of ``C``, ``D``, ``C^-*``, ``D^-*``, ``C ox D`` and ``D ox C``
    and the tensors ``C ox D``, ``D ox C``, ``C^-* ox D^-*`` and
    ``D^-* ox C^-*``, each exactly once."""
    rng, C, D = pair(11, -1, 0, True, False)
    f, g = graded_map(rng, C, D, 0), graded_map(rng, D, C, 1)
    inits, duals, tensors = [0], [], []
    real_init, real_dual, real_layout = (ChainComplex.__init__, chaincore.dual_complex,
                                         TensorLayout.__init__)

    def init(self, *args, **kwargs):
        inits[0] += 1
        real_init(self, *args, **kwargs)

    def dual(c):  # a call that constructs a complex builds a dual
        before = inits[0]
        out = real_dual(c)
        if inits[0] > before:
            duals.append(weakref.ref(c))
        return out

    def layout(self, c, d):
        tensors.append((weakref.ref(c), weakref.ref(d)))
        real_layout(self, c, d)

    monkeypatch.setattr(ChainComplex, "__init__", init)
    monkeypatch.setattr(chaincore, "dual_complex", dual)
    monkeypatch.setattr(TensorLayout, "__init__", layout)
    dual(C).validate()
    tensor_complex(C, D).validate()
    flip_map(C, D).validate()
    assert dual_map(dual_map(f)).compose(iota(C)) == iota(D).compose(f)
    lhs = mu_map(C, D).compose(tensor_map(dual_map(f), dual_map(g)))
    assert lhs == dual_map(tensor_map(f, g)).compose(mu_map(D, C))
    cd, dd = dual(C), dual(D)
    built = sorted(id(r()) for r in duals)
    assert built == sorted(map(id, [C, D, cd, dd, tensor_complex(C, D), tensor_complex(D, C)]))
    built = sorted((id(a()), id(b())) for a, b in tensors)
    assert built == sorted((id(a), id(b)) for a, b in [(C, D), (D, C), (cd, dd), (dd, cd)])


def test_a_long_lived_complex_keeps_no_tensor_of_a_dead_factor():
    c = rand_complex(random.Random(5), max_len=3, max_rank=3)
    tensors = []
    for rank in range(200):
        d = ChainComplex({0: rank % 4 + 1})
        tensors.append(weakref.ref(tensor_complex(c, d)))
        del d
    # the last entry is stale until the next insert drops it
    assert [r for r in tensors if r() is not None] in ([], tensors[-1:])
    del c
    assert [r for r in tensors if r() is not None] == []


# -- one dual rule and one tensor rule, for complexes and maps ------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(*INPUTS)
def test_complexes_are_built_by_the_map_rules(seed, lo_c, lo_d, positions, idempotents):
    """The dual differential is the dual of ``d`` as a degree -1 map; the
    tensor differential is ``d_C ox 1 + 1 ox d_D`` and its idempotent
    ``1 ox 1``, with ``1`` the identity of the object, its idempotent."""
    _, c, d = pair(seed, lo_c, lo_d, positions, idempotents)
    dc, dd = ChainMap(c, c, -1, c.d_total), ChainMap(d, d, -1, d.d_total)
    one_c, one_d = ChainMap.identity(c), ChainMap.identity(d)
    assert dual_complex(c).d_total == dual_map(dc).total
    t = tensor_complex(c, d)
    assert t.d_total == (tensor_map(dc, one_d) + tensor_map(one_c, dd)).total
    assert ChainMap.identity(t) == tensor_map(one_c, one_d)


def test_tensors_of_idempotent_complexes_are_complexes():
    for seed in range(40):
        _, c, d = pair(seed, -1, 0, False, True)
        tensor_complex(c, d).validate()
        ref_tensor(c, d).validate()
