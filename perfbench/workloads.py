"""The benchmark's workloads and the loading of the program from source.

A workload builds its shared program inputs from the seed (``setup``, which
is timed as ``setup_s``), builds what its checks need without the program
(``reference``), and lists one round of operations (``round``).  ``run`` is
the timed call into the program; ``check`` extracts plain data from its
output and hands it to :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import ``skewpoisson`` afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "skewpoisson" or m.startswith("skewpoisson.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    program = importlib.import_module("skewpoisson")
    importlib.import_module("skewpoisson.cli")
    if SRC not in Path(program.__file__).resolve().parents:
        raise ImportError(f"skewpoisson was imported from {program.__file__}, not from {SRC}")
    return program


def _rng(workload, seed, purpose):
    return random.Random(f"{workload}:{seed}:{purpose}")


class CounterexampleLadder:
    """The paper's pipeline as a user runs it: one in-process CLI call per
    operation, on the bundled scenario.  The scenario is the paper's and is
    fixed; the seed picks the points the checks evaluate at."""

    name = "counterexample-ladder"
    degree = 8  # the bundled scenario's own ladder, 0..8

    def setup(self, program, seed):
        return ["obstruction", "--degree", str(self.degree), "--format", "machine"]

    def reference(self, seed):
        return checks.ScenarioReference(checks.sample_points(_rng(self.name, seed, "points"), 4, 3))

    def round(self, state):
        return [state]

    def run(self, program, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = program.cli.main(argv)
        return rc, out.getvalue()

    def check(self, ref, argv, output):
        rc, text = output
        checks.check_ladder(ref, self.degree, rc, text)


class GroupInvariants:
    """B3 acting on h + h* (order 48, dimension 6): generate the group and
    its classes, the Molien coefficients up to ``molien_degree`` and the
    invariant basis at ``basis_degree``.  The seed conjugates the Coxeter
    generators by a random element of B3 and shuffles their order, so the
    enumeration order changes but the group does not."""

    name = "b3-group-invariants"
    n = 3
    molien_degree = 6
    basis_degree = 4

    def generators(self, seed):
        rng = _rng(self.name, seed, "generators")
        n = self.n
        coxeter = [
            checks.signed_permutation(n, (1, 0, 2), (1, 1, 1)),
            checks.signed_permutation(n, (0, 2, 1), (1, 1, 1)),
            checks.signed_permutation(n, (0, 1, 2), (1, 1, -1)),
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        g = checks.signed_permutation(n, perm, [rng.choice((1, -1)) for _ in range(n)])
        g_inv = checks.matrix(zip(*g))  # signed permutations are orthogonal
        gens = [checks.mat_mul(checks.mat_mul(g, s), g_inv) for s in coxeter]
        rng.shuffle(gens)
        return gens

    def setup(self, program, seed):
        # rational strings, as a scenario file gives them
        return [[[str(x) for x in row] for row in m] for m in self.generators(seed)]

    def reference(self, seed):
        return checks.GroupInvariantsReference(
            self.n, self.generators(seed), self.molien_degree, self.basis_degree,
            checks.sample_points(_rng(self.name, seed, "points"), 2 * self.n, 2),
        )

    def round(self, state):
        return [state]

    def run(self, program, generators):
        group = program.generate_group(generators, names=["s1", "s2", "s3"])
        molien = program.molien_coefficients(group, self.molien_degree)
        basis = program.invariant_basis(group, self.basis_degree)
        return group, molien, basis

    def check(self, ref, generators, output):
        group, molien, basis = output
        checks.check_group_invariants(
            ref,
            group.order,
            [(c.size, len(c.centralizer)) for c in group.classes],
            molien,
            [dict(p.items()) for p in basis],
        )


class SwapClassSolve:
    """One ``solve_sigma`` per operation on the class of ``e`` (x1<->x3,
    x2<->x4), whose fixed-space projection has entries 1/2.

    Each round is eight seeded pairs: phi in {h1, h2} times the four
    choices of ``a`` in psi = ``c0*x_a^2 + c1*(x1 - x3)*x_k + c2*(x2 - x4)*x_l``.
    On the fixed space psi is ``c0*x_a^2`` and the target a nonzero multiple
    of it (times x1*x2 for h2), so every pair is FEASIBLE with a nonzero
    target; the check confirms it.  Every round holds the same kinds of
    pairs and every psi has five terms of degree 2, so the median does not
    hinge on the draw."""

    name = "swap-class-solve"
    degree = 3  # sigma needs degree 2 (phi = h2)

    def pairs(self, seed):
        rng = _rng(self.name, seed, "pairs")
        out = []
        for phi in ("h1", "h2"):
            for a in range(4):
                c0, c1, c2 = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
                # x_k, x_l never repeat x_a^2, so psi always has five terms
                k = 2 - a if a in (0, 2) else rng.choice((0, 2))
                l = 4 - a if a in (1, 3) else rng.choice((1, 3))
                psi = {
                    checks.var(4, a, a): c0,
                    checks.var(4, 0, k): c1, checks.var(4, 2, k): -c1,
                    checks.var(4, 1, l): c2, checks.var(4, 3, l): -c2,
                }
                out.append((phi, psi))
        rng.shuffle(out)
        return out

    def setup(self, program, seed):
        config = program.ScenarioConfig.bundled()
        group = config.build_group()
        form = config.build_form()
        class_index = group.class_of(group.element_from_word("e"))
        phis = {name: config.polynomial(name) for name in ("h1", "h2")}
        return [
            (group, form, class_index, phi_name, phis[phi_name], psi,
             program.Polynomial(4, psi))
            for phi_name, psi in self.pairs(seed)
        ]

    def reference(self, seed):
        return checks.ScenarioReference(checks.sample_points(_rng(self.name, seed, "points"), 4, 3))

    def round(self, state):
        return state

    def run(self, program, case):
        group, form, class_index, _, phi, _, psi = case
        problem = program.ObstructionProblem(group, phi, psi, class_index, self.degree, form)
        return program.solve_sigma(problem)

    def check(self, ref, case, cert):
        phi_terms = {"h1": checks.H1, "h2": checks.H2}[case[3]]
        checks.check_replay(
            ref, phi_terms, case[5], cert.verdict.value,
            dict(cert.target.items()),
            None if cert.sigma is None else dict(cert.sigma.items()),
        )


WORKLOADS = {w.name: w for w in (CounterexampleLadder(), GroupInvariants(), SwapClassSolve())}
