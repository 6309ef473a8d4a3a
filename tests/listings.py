"""S_n and its signs, listed as a verify run lists them."""

from signdeloop.finite import symmetric_group
from signdeloop.perms import sign_inversions


def listing(n):
    """(group, signs): the listing of S_n and the inversion sign of each of
    its permutations, in order."""
    group = symmetric_group(n)
    return group, tuple(map(sign_inversions, group))
