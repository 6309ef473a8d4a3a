"""S_n and its signs, listed as a verify run lists them, and the Cayley
walk that composes Bijections, which verify's index walk is checked
against."""

from signdeloop.finite import fin, identity, symmetric_group
from signdeloop.perms import sign_inversions, transposition


def listing(n):
    """(group, signs): the listing of S_n and the inversion sign of each of
    its permutations, in order."""
    group = symmetric_group(n)
    return group, tuple(map(sign_inversions, group))


def adjacent_swaps(n):
    """The n - 1 adjacent swaps <i i+1> of fin(n), as Bijections."""
    return [transposition(n, i, i + 1) for i in range(n - 1)]


def composed_walk(n, moves):
    """Every edge (h, i, g_i.then(h)) of the Cayley graph of the Bijections
    moves = [g_0, ...], breadth-first from the identity of fin(n) with the
    moves in order: h*g_i applies g_i first.  Each permutation is expanded
    once, when the walk first reaches it."""
    frontier = [identity(fin(n))]
    seen = set(frontier)
    for h in frontier:
        for i, g in enumerate(moves):
            q = g.then(h)
            yield h, i, q
            if q not in seen:
                seen.add(q)
                frontier.append(q)
