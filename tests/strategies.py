"""Shared hypothesis strategies."""

import hypothesis.strategies as st

from signdeloop.finite import Bijection, LabeledSet, fin

labels = st.integers(min_value=0, max_value=10**6)


def labeled_sets(min_size=0, max_size=6):
    return st.frozensets(labels, min_size=min_size, max_size=max_size).map(
        LabeledSet.of
    )


@st.composite
def endo_bijections(draw, min_size=0, max_size=6):
    X = draw(labeled_sets(min_size, max_size))
    images = tuple(draw(st.permutations(X.elements)))
    return Bijection(X, X, images)


@st.composite
def fin_permutations(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    images = tuple(draw(st.permutations(tuple(range(n)))))
    return Bijection(fin(n), fin(n), images)


@st.composite
def bijection_chains(draw, length=2, min_size=0, max_size=6):
    """A chain of composable bijections over freshly labeled sets."""
    size = draw(st.integers(min_size, max_size))
    sets = [draw(labeled_sets(size, size)) for _ in range(length + 1)]
    chain = []
    for A, B in zip(sets, sets[1:]):
        images = tuple(draw(st.permutations(B.elements)))
        chain.append(Bijection(A, B, images))
    return chain


def carriers(n):
    """fin(n), or an n-element set of arbitrary labels."""
    return st.one_of(st.just(fin(n)), labeled_sets(n, n))


@st.composite
def labeled_chains(draw, length=2, max_size=6):
    """Composable bijections, each over fin(n) or an arbitrary carrier,
    paired with its dict of label images: the label-level oracle."""
    n = draw(st.integers(0, max_size))
    sets = [draw(carriers(n)) for _ in range(length + 1)]
    chain = []
    for A, B in zip(sets, sets[1:]):
        images = tuple(draw(st.permutations(B.elements)))
        chain.append((Bijection(A, B, images), dict(zip(A.elements, images))))
    return chain
