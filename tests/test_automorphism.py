"""scl is invariant under automorphisms of the free group, and rot, in
rank 2, changes at most its sign.

An automorphism is given by the images of the generators.  The checks
apply the Nielsen generators a -> ab, a -> ba, a -> aB and b -> ba and the
signed permutations of the generators to SCL_CORPUS and to seeded short
chains.  In rank 2 every automorphism sends abAB to a conjugate of abAB
or of its inverse, and is realized by a homeomorphism of the punctured
torus that keeps or reverses the orientation, so rot keeps or flips its
sign with it.
"""

import itertools

import pytest

from sclkit.freegroup import (Chain, ChainTerm, canonicalize, concat, invert,
                              make_word, single_chain, word)
from sclkit.rotation import rot
from sclkit.sclenc import scl

from conftest import SCL_CORPUS, chain, random_trivial_chain, seeded

# the Nielsen generators a -> ab, a -> ba, a -> aB and b -> ba:
# generator -> image, the others fixed
NIELSEN = ({1: "ab"}, {1: "ba"}, {1: "aB"}, {2: "ba"})


def nielsen(rank, images):
    return {g: word(images[g], rank) if g in images else make_word((g,), rank)
            for g in range(1, rank + 1)}


def signed_permutations(rank):
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            yield {g: make_word((s * p,), rank)
                   for g, p, s in zip(range(1, rank + 1), perm, signs)}


def automorphisms(rank):
    maps = [nielsen(rank, images) for images in NIELSEN]
    return maps + list(signed_permutations(rank))


def apply_word(phi, w):
    if not w.letters:
        return w
    return concat(*(phi[x] if x > 0 else invert(phi[-x]) for x in w.letters))


def apply_chain(phi, c):
    return Chain(tuple(ChainTerm(t.coefficient, apply_word(phi, t.word))
                       for t in c.terms), c.rank)


def orientation(phi):
    """+1 if phi(abAB) is conjugate to abAB, -1 if to its inverse."""
    boundary = single_chain(word("abAB"))
    image = canonicalize(apply_chain(phi, boundary)).terms
    assert len(image) == 1 and image[0].word == word("abAB")
    return image[0].coefficient


def cases():
    # a rank-1 chain is read in rank 2, where the Nielsen maps act
    out = [(expr, chain(expr, min_rank=2)) for expr, _ in SCL_CORPUS]
    rng = seeded(9091)
    for rank in (2, 3):
        for k in range(10):
            c = random_trivial_chain(rng, rank=rank, max_letters=8)
            out.append(("rank %d chain %d" % (rank, k), c))
    return out


@pytest.mark.parametrize("name, c", cases())
def test_scl_invariant_under_automorphisms(name, c):
    value = scl(c)
    for phi in automorphisms(c.rank):
        assert scl(apply_chain(phi, c)) == value, (name, phi)


@pytest.mark.parametrize("name, c", [(name, c) for name, c in cases()
                                     if c.rank == 2])
def test_rot_changes_sign_with_orientation(name, c):
    value = rot(c)
    for phi in automorphisms(2):
        assert rot(apply_chain(phi, c)) == orientation(phi) * value, (name,
                                                                      phi)


def test_orientation_of_the_generators():
    # the Nielsen generators keep the orientation; a swap or one
    # inverted generator reverses it
    assert [orientation(nielsen(2, images)) for images in NIELSEN] == [
        1, 1, 1, 1]
    swap = {1: word("b"), 2: word("a", 2)}
    flip = {1: word("A", 2), 2: word("b")}
    assert orientation(swap) == -1 and orientation(flip) == -1
