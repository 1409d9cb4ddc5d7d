"""Checks made apart from the program.

Nothing here imports ``skewpoisson``.  Matrices are tuples of tuples of
``Fraction`` multiplied by this module's own products; polynomials are
``{exponents: coefficient}`` maps evaluated at seeded rational points.  Each
``check_*`` function takes plain data extracted from one operation's output
and raises :class:`CheckError` naming the first thing that is wrong.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction


class CheckError(AssertionError):
    """An operation's output disagrees with the independent computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ----------------------------------------------------------------------
# matrices


def matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def closure(generators):
    """Every product of the generators, identity first, by breadth-first search."""
    one = identity(len(generators[0]))
    elements = [one]
    seen = {one}
    queue = deque([one])
    while queue:
        g = queue.popleft()
        for s in generators:
            h = mat_mul(g, s)
            if h not in seen:
                seen.add(h)
                elements.append(h)
                queue.append(h)
    return elements


def inverse_in(elements, g):
    one = identity(len(g))
    return next(h for h in elements if mat_mul(g, h) == one)


def class_count(elements):
    """Number of conjugacy classes of a finite group given as matrices."""
    inverses = {g: inverse_in(elements, g) for g in elements}
    seen, count = set(), 0
    for g in elements:
        if g in seen:
            continue
        count += 1
        seen.update(mat_mul(mat_mul(h, g), inverses[h]) for h in elements)
    return count


class ClassProjection:
    """Evaluates the trace-space projection onto the class of ``rep``:
    ``(1/|Z|) sum_{k in Z} p(k^-1 P v)`` with ``P`` the average of the powers
    of ``rep`` and ``Z`` its centralizer, all computed here."""

    def __init__(self, elements, rep):
        powers = [rep]
        while powers[-1] != identity(len(rep)):
            powers.append(mat_mul(powers[-1], rep))
        scale = Fraction(1, len(powers))
        fixed = tuple(
            tuple(scale * sum(m[i][j] for m in powers) for j in range(len(rep)))
            for i in range(len(rep))
        )
        centralizer = [k for k in elements if mat_mul(k, rep) == mat_mul(rep, k)]
        self.moves = [mat_mul(inverse_in(elements, k), fixed) for k in centralizer]

    def average(self, value, v):
        return sum(value(mat_vec(m, v)) for m in self.moves) / len(self.moves)


# ----------------------------------------------------------------------
# polynomials as {exponents: coefficient}


def evaluate(terms, point):
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = Fraction(coeff)
        for x, e in zip(point, exps):
            if e:
                value *= x ** e
        total += value
    return total


def derivative(terms, index):
    out = {}
    for exps, coeff in terms.items():
        e = exps[index]
        if e:
            lowered = exps[:index] + (e - 1,) + exps[index + 1:]
            out[lowered] = out.get(lowered, 0) + coeff * e
    return out


def bracket_at(p, q, tensor, point):
    """``sum_ij T[i][j] dp/dx_i dq/dx_j`` at a point."""
    n = len(tensor)
    dp = [evaluate(derivative(p, i), point) for i in range(n)]
    dq = [evaluate(derivative(q, j), point) for j in range(n)]
    return sum(tensor[i][j] * dp[i] * dq[j] for i in range(n) for j in range(n))


def parse_terms(text, nvars):
    """Read the program's canonical text (``2*x1^2 - 1/2*x3``) into terms."""
    text = text.strip()
    require(text, "empty polynomial text")
    if text == "0":
        return {}
    terms = {}
    try:
        for piece in text.replace(" - ", " + -").split(" + "):
            sign = -1 if piece.startswith("-") else 1
            coeff, exps = Fraction(sign), [0] * nvars
            for factor in piece.lstrip("-").split("*"):
                if factor.startswith("x"):
                    name, _, power = factor.partition("^")
                    index = int(name[1:]) - 1
                    require(0 <= index < nvars, f"no variable {name}")
                    exps[index] += int(power or 1)
                else:
                    coeff *= Fraction(factor)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise CheckError(f"unreadable polynomial {text!r}: {exc}") from exc
    return {k: v for k, v in terms.items() if v}


def sample_points(rng, nvars, count):
    """Rational points with no zero coordinate, so no monomial vanishes there."""
    return [
        tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
              for _ in range(nvars))
        for _ in range(count)
    ]


def var(nvars, *indices):
    exps = [0] * nvars
    for i in indices:
        exps[i] += 1
    return tuple(exps)


# ----------------------------------------------------------------------
# the paper's scenario: the order-8 group on C^4


def darboux(n):
    """Gram matrix of dx1^dx2 + dx3^dx4 + ...; its Poisson tensor J^-T is
    the same matrix."""
    rows = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        rows[k][k + 1], rows[k + 1][k] = 1, -1
    return matrix(rows)


FORM4 = darboux(4)
GEN_B = matrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
GEN_C = matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
GEN_E = matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
F1 = {var(4, 0, 0): 1, var(4, 2, 2): 1}
H1 = {var(4, 0, 1): 1, var(4, 2, 3): 1}
H2 = {var(4, 0, 0, 1, 1): 1, var(4, 2, 2, 3, 3): 1}
PAPER_BRACKET = {var(4, 0, 0): 2, var(4, 2, 2): 2}
PAPER_PROJECTION = {var(4, 2, 2): 2}
PAPER_RELATIONS = tuple(f"r{i}" for i in range(1, 10))
WITNESS = "x4"


class ScenarioReference:
    """The order-8 group, built here, with the projections the checks need."""

    def __init__(self, points):
        self.points = points
        self.elements = closure([GEN_B, GEN_C, GEN_E])
        self.classes = class_count(self.elements)
        self.symplectic = all(
            mat_mul(mat_mul(tuple(zip(*g)), FORM4), g) == FORM4 for g in self.elements)
        self.project_b = ClassProjection(self.elements, GEN_B)
        self.project_e = ClassProjection(self.elements, GEN_E)


def _agree(terms, value, points, what):
    for v in points:
        require(evaluate(terms, v) == value(v), f"{what} is wrong at the point {v}")


def check_ladder(ref, degree, rc, text):
    """One ``obstruction --degree D --format machine`` run on the bundled
    scenario, against the paper's result."""
    require(rc == 0, f"exit code {rc}, expected 0")
    doc = json.loads(text)
    stages = {s["name"]: s["payload"] for s in doc["stages"]}
    require(all(s["status"] == "ok" for s in doc["stages"]), "a stage is not ok")
    group = stages["group"]
    require(group["order"] == len(ref.elements) == 8,
            f"group order {group['order']}, expected 8")
    require(group["classes"] == ref.classes == 5,
            f"{group['classes']} classes, expected 5")
    symp = stages["symplectic"]
    require(symp["all_symplectic"] == ref.symplectic and len(symp["elements"]) == 8,
            "symplectic stage does not cover 8 symplectic elements")
    require(stages["generators"]["all_invariant"], "a generator is not invariant")
    rels = stages["relations"]["relations"]
    require(tuple(r["name"] for r in rels) == PAPER_RELATIONS,
            "relations are not r1..r9")
    require(all(r["zero"] and r["residual"] == "0" for r in rels),
            "a relation residual is not zero")

    head = stages["psi=h1:target"]
    bracket = parse_terms(head["bracket"], 4)
    target = parse_terms(head["target"], 4)
    require(bracket == PAPER_BRACKET, f"bracket {head['bracket']!r}, paper: 2*x1^2 + 2*x3^2")
    require(target == PAPER_PROJECTION, f"projection {head['target']!r}, paper: 2*x3^2")
    _agree(bracket, lambda v: bracket_at(F1, H1, FORM4, v), ref.points, "the bracket {f1,h1}")
    _agree(target, lambda v: ref.project_b.average(
        lambda w: bracket_at(F1, H1, FORM4, w), v), ref.points, "the projection")

    steps = stages["psi=h1:ladder"]["steps"]
    require([s["degree"] for s in steps] == list(range(degree + 1)),
            f"ladder degrees {[s['degree'] for s in steps]}, expected 0..{degree}")
    # the image generators are the distinct nonzero projected translates of psi = h1
    translates = {
        tuple(evaluate(H1, mat_vec(move, v)) for v in ref.points)
        for move in ref.project_b.moves
    }
    translates.discard((0,) * len(ref.points))
    for step in steps + [stages["psi=h1:certificate"]]:
        where = f"rung {step.get('degree', 'certificate')}"
        require(step["verdict"] == "INFEASIBLE_ALL_DEGREES",
                f"{where}: verdict {step['verdict']}")
        require(step["divisor_witness"] == WITNESS,
                f"{where}: witness {step['divisor_witness']}, paper: {WITNESS}")
        require(parse_terms(step["target"], 4) == target, f"{where}: target differs")
        w = int(step["divisor_witness"][1:]) - 1
        require(any(exps[w] == 0 for exps in target),
                f"{where}: the witness divides the target")
        images = [parse_terms(t, 4) for t in step["image_generators"]]
        require(images and all(exps[w] > 0 for p in images for exps in p),
                f"{where}: the witness does not divide every image generator")
        values = [tuple(evaluate(p, v) for v in ref.points) for p in images]
        require(len(set(values)) == len(values) and set(values) == translates,
                f"{where}: image generators are not the translates of h1")
    require(doc["verdict"] == f"h1: INFEASIBLE_ALL_DEGREES (witness {WITNESS})",
            f"summary verdict {doc['verdict']!r}")


def check_replay(ref, phi, psi, verdict, target, sigma):
    """A ``solve_sigma`` answer on the class of ``e``: the multiplier must
    make ``(1/|Z|) sum_k ({phi,psi} + psi*sigma)(k^-1 P v)`` vanish."""
    require(verdict == "FEASIBLE", f"verdict {verdict}, expected FEASIBLE")
    require(target, "the target is zero")
    require(sigma is not None, "no multiplier")
    proj = ref.project_e
    for v in ref.points:
        require(evaluate(target, v) == proj.average(
            lambda w: bracket_at(phi, psi, FORM4, w), v),
            f"target is wrong at the point {v}")
        residual = proj.average(
            lambda w: bracket_at(phi, psi, FORM4, w) + evaluate(psi, w) * evaluate(sigma, w),
            v)
        require(residual == 0, f"multiplier leaves {residual} at the point {v}")


# ----------------------------------------------------------------------
# B_n acting on h + h* by signed permutations


def signed_permutation(n, perm, signs):
    """The 2n x 2n matrix sending the pair (q_i, p_i) to signs[i] * (q_j, p_j),
    j = perm[i]; symplectic for the Darboux form."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i, (j, s) in enumerate(zip(perm, signs)):
        rows[2 * j][2 * i] = rows[2 * j + 1][2 * i + 1] = s
    return matrix(rows)


def partitions(k):
    """Number of partitions of k."""
    def count(k, largest):
        if k == 0:
            return 1
        return sum(count(k - part, part) for part in range(1, min(k, largest) + 1))
    return count(k, k)


def bipartitions(n):
    """Conjugacy classes of B_n: pairs of partitions of total size n."""
    return sum(partitions(k) * partitions(n - k) for k in range(n + 1))


def monomial_map(m):
    """A monomial matrix as (target variable, sign) per row."""
    out = []
    for row in m:
        (k, s), = [(k, s) for k, s in enumerate(row) if s]
        out.append((k, s))
    return out


def invariant_count(maps, nvars, degree):
    """Dimension of the degree slice of the invariants of a monomial group:
    the monomial orbits whose stabilizer never acts by -1."""
    seen, count = set(), 0
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        exps = tuple(exps)
        if exps in seen:
            continue
        kept = True
        for g in maps:
            image, sign = [0] * nvars, 1
            for (k, s), e in zip(g, exps):
                image[k] += e
                if s < 0 and e % 2:
                    sign = -sign
            image = tuple(image)
            seen.add(image)
            if image == exps and sign < 0:
                kept = False
        count += kept
    return count


class GroupInvariantsReference:
    """What the B_n workload must report, computed from the generators."""

    def __init__(self, n, generators, molien_degree, basis_degree, points):
        elements = closure(generators)
        maps = [monomial_map(g) for g in elements]
        self.generators = generators
        self.order = len(elements)
        self.classes = bipartitions(n)
        self.molien = [invariant_count(maps, 2 * n, d) for d in range(molien_degree + 1)]
        self.basis_degree = basis_degree
        self.basis_dim = invariant_count(maps, 2 * n, basis_degree)
        self.points = points


def check_group_invariants(ref, order, classes, molien, basis):
    """``classes`` holds (size, centralizer order) per class; ``basis`` holds
    term maps."""
    require(order == ref.order, f"group order {order}, expected {ref.order}")
    require(len(classes) == ref.classes,
            f"{len(classes)} classes, expected {ref.classes} (pairs of partitions)")
    for i, (size, centralizer) in enumerate(classes):
        require(size * centralizer == order,
                f"class {i}: size {size} x centralizer {centralizer} != {order}")
    require(list(molien) == ref.molien, f"Molien {list(molien)}, orbit count {ref.molien}")
    require(len(basis) == ref.basis_dim,
            f"basis of {len(basis)} at degree {ref.basis_degree}, orbit count {ref.basis_dim}")
    leads = set()
    for p in basis:
        require(p and all(sum(e) == ref.basis_degree for e in p),
                f"basis polynomial is not homogeneous of degree {ref.basis_degree}")
        leads.add(max(p, key=lambda e: (sum(e), e)))
        for v in ref.points:
            value = evaluate(p, v)
            for g in ref.generators:
                require(evaluate(p, mat_vec(g, v)) == value,
                        f"basis polynomial is not fixed by a generator at {v}")
    require(len(leads) == len(basis), "basis polynomials share a leading monomial")
