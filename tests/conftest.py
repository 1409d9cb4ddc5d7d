from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from skewpoisson import Polynomial, ScenarioConfig, act_on_poly, generate_group
from skewpoisson.linalg import inverse, mat_mul, matrix_from_rows, transpose
from skewpoisson.poly import monomials_of_degree
from skewpoisson.selftest import DEFAULT_SEED, run_selftest


def on_h_plus_dual(m):
    """The block matrix diag(m, m^-T): the action of ``m`` on h + h*."""
    m = matrix_from_rows(m)
    zeros = (0,) * len(m)
    return (tuple(row + zeros for row in m)
            + tuple(zeros + row for row in transpose(inverse(m))))


def signed_permutation(perm, signs):
    """The matrix sending e_i to signs[i] * e_perm[i]."""
    n = len(perm)
    return [[signs[i] if perm[i] == r else 0 for i in range(n)] for r in range(n)]


def coxeter_bn(n, seed):
    """Generators of B_n on h + h*: the transpositions (i, i+1) and the sign
    change of the last coordinate, conjugated by a seeded random signed
    permutation and shuffled.  The seed changes the enumeration order, not
    the group."""
    rng = random.Random(seed)
    ident = list(range(n))
    gens = [signed_permutation(ident[:i] + [i + 1, i] + ident[i + 2:], [1] * n)
            for i in range(n - 1)]
    gens.append(signed_permutation(ident, [1] * (n - 1) + [-1]))
    perm = ident[:]
    rng.shuffle(perm)
    g = matrix_from_rows(signed_permutation(perm, [rng.choice((1, -1)) for _ in ident]))
    gens = [mat_mul(mat_mul(g, matrix_from_rows(s)), inverse(g)) for s in gens]
    rng.shuffle(gens)
    return [on_h_plus_dual(s) for s in gens]


def conjugated_s3():
    """S3 on h + h*, conjugated on h by [[2, 1], [0, 1]]: entries in (1/2)Z,
    so products carry denominators that a gcd must reduce."""
    t = matrix_from_rows([["2", "1"], ["0", "1"]])
    return [on_h_plus_dual(mat_mul(mat_mul(t, matrix_from_rows(m)), inverse(t)))
            for m in ([["-1", "1"], ["0", "1"]], [["1", "0"], ["1", "-1"]])]


ROTATION = [["1/2", "-3/2"], ["1/2", "1/2"]]  # order 6, trace 1 and determinant 1


def cofactor_det(rows):
    """Determinant of a matrix of numbers by cofactor expansion along the
    first row, skipping zero entries."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def random_poly(rng, nvars):
    """Up to four terms of degree at most 3 with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return Polynomial(nvars, terms)


def fixed_by_every_element(group, p):
    """Invariance by definition: every element of the group fixes ``p``."""
    return all(act_on_poly(group, p, g) == p for g in range(group.order))


def class_restriction(group, class_index):
    """The restriction of a class, the substitution by its representative's
    fixed-space projection, as the class's coordinates factor it."""
    coords = group.class_coordinates(class_index)
    return lambda p: coords.back(coords.into(p))


def assert_keys_match_images(sub, top):
    """Check the image-key contract of a compiled substitution on every
    monomial of degree at most ``top``: the key is ``None`` exactly when the
    image is zero, and two monomials share a key exactly when their images
    are equal."""
    by_key, by_image = {}, {}
    for degree in range(top + 1):
        for exps in monomials_of_degree(sub.nvars, degree):
            key = sub.image_key(exps)
            image = sub(Polynomial.monomial(sub.nvars, exps))
            assert (key is None) == image.is_zero, exps
            if key is not None:
                assert by_key.setdefault(key, image) == image, exps
                assert by_image.setdefault(image, key) == key, exps


@pytest.fixture(scope="session")
def config():
    return ScenarioConfig.bundled()


@pytest.fixture(scope="session")
def form(config):
    return config.build_form()


@pytest.fixture(scope="session")
def group(config):
    return config.build_group()


@pytest.fixture(scope="session")
def generators(config):
    return config.build_generator_set()


@pytest.fixture(scope="session")
def named(config):
    names = ("f1", "f2", "f3", "f4", "h1", "h2", "h3", "h4")
    return {n: config.polynomial(n) for n in names}


@pytest.fixture(scope="session")
def b3_group():
    """B3 on h + h* (order 48, dimension 6), from seeded Coxeter generators."""
    return generate_group(coxeter_bn(3, seed=3))


@pytest.fixture(scope="session")
def b4_group():
    """B4 on h + h* (order 384, dimension 8), from seeded Coxeter generators."""
    return generate_group(coxeter_bn(4, seed=4))


@pytest.fixture(scope="session")
def b5_group():
    """B5 on h + h* (order 3840, dimension 10), from seeded Coxeter generators."""
    return generate_group(coxeter_bn(5, seed=5))


@pytest.fixture(scope="session")
def s3_group():
    """S3 in its reflection representation on h + h* (order 6, dimension 4);
    not monomial, so products take the general path."""
    return generate_group([on_h_plus_dual([["-1", "1"], ["0", "1"]]),
                           on_h_plus_dual([["1", "0"], ["1", "-1"]])])


@pytest.fixture(params=["group", "b3_group", "s3_group"])
def reference_group(request):
    """The bundled group, B3 and S3, one per test run."""
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="session")
def full_selftest():
    """One run of every property suite at the default seed, shared by the
    acceptance criterion and the per-suite tests: ``(results, seconds)``,
    with the wall time of the run."""
    start = time.perf_counter()
    results = run_selftest(seed=DEFAULT_SEED)
    return results, time.perf_counter() - start
