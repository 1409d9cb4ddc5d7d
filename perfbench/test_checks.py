"""Each checker accepts the program's answer and rejects a wrong one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import checks
import workloads

SEED = 1
PROGRAM = workloads.load_program()


class LadderCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.CounterexampleLadder()
        cls.ref = cls.wl.reference(SEED)
        cls.rc, cls.text = cls.wl.run(PROGRAM, cls.wl.setup(PROGRAM, SEED))

    def test_accepts_the_program(self):
        checks.check_ladder(self.ref, self.wl.degree, self.rc, self.text)

    def test_rejects_a_wrong_witness(self):
        doc = json.loads(self.text)
        doc["stages"][-2]["payload"]["steps"][3]["divisor_witness"] = "x3"
        with self.assertRaisesRegex(checks.CheckError, "witness x3"):
            checks.check_ladder(self.ref, self.wl.degree, self.rc, json.dumps(doc))

    def test_rejects_a_wrong_projection(self):
        wrong = self.text.replace('"target": "2*x3^2"', '"target": "2*x1^2"')
        with self.assertRaisesRegex(checks.CheckError, "projection"):
            checks.check_ladder(self.ref, self.wl.degree, self.rc, wrong)

    def test_rejects_a_nonzero_exit(self):
        with self.assertRaisesRegex(checks.CheckError, "exit code 1"):
            checks.check_ladder(self.ref, self.wl.degree, 1, self.text)


class GroupInvariantsCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.GroupInvariants()
        cls.ref = cls.wl.reference(SEED)
        group, molien, basis = cls.wl.run(PROGRAM, cls.wl.setup(PROGRAM, SEED))
        cls.answer = (
            group.order,
            [(c.size, len(c.centralizer)) for c in group.classes],
            list(molien),
            [dict(p.items()) for p in basis],
        )

    def check(self, order, classes, molien, basis):
        checks.check_group_invariants(self.ref, order, classes, molien, basis)

    def test_reference_counts(self):
        self.assertEqual((self.ref.order, self.ref.classes), (48, 10))
        self.assertEqual(self.ref.molien, [1, 0, 3, 0, 11, 0, 32])

    def test_accepts_the_program(self):
        self.check(*self.answer)

    def test_rejects_a_molien_list_off_by_one(self):
        order, classes, molien, basis = self.answer
        for k in range(len(molien)):
            wrong = list(molien)
            wrong[k] += 1
            with self.assertRaisesRegex(checks.CheckError, "Molien"):
                self.check(order, classes, wrong, basis)

    def test_rejects_a_wrong_class_table(self):
        order, classes, molien, basis = self.answer
        wrong = [(classes[0][0] + 1, classes[0][1])] + classes[1:]
        with self.assertRaisesRegex(checks.CheckError, "class 0"):
            self.check(order, wrong, molien, basis)

    def test_rejects_a_basis_polynomial_that_is_not_invariant(self):
        order, classes, molien, basis = self.answer
        wrong = [dict(p) for p in basis]
        wrong[0][checks.var(6, 0, 0, 0, 1)] = 1  # x1^3*x2 alone is not invariant
        with self.assertRaisesRegex(checks.CheckError, "not fixed"):
            self.check(order, classes, molien, wrong)


class ReplayCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.SwapClassSolve()
        cls.ref = cls.wl.reference(SEED)
        cls.cases = cls.wl.round(cls.wl.setup(PROGRAM, SEED))
        cls.answers = [cls.wl.run(PROGRAM, case) for case in cls.cases[:2]]

    def replay(self, case, verdict, target, sigma):
        phi = {"h1": checks.H1, "h2": checks.H2}[case[3]]
        checks.check_replay(self.ref, phi, case[5], verdict, target, sigma)

    def test_accepts_the_program(self):
        for case, cert in zip(self.cases, self.answers):
            self.replay(case, cert.verdict.value, dict(cert.target.items()),
                        dict(cert.sigma.items()))

    def test_rejects_a_perturbed_multiplier(self):
        for case, cert in zip(self.cases, self.answers):
            for exps in (checks.var(4), checks.var(4, 0, 2)):
                sigma = dict(cert.sigma.items())
                sigma[exps] = sigma.get(exps, 0) + 1
                with self.assertRaisesRegex(checks.CheckError, "multiplier leaves"):
                    self.replay(case, cert.verdict.value, dict(cert.target.items()), sigma)

    def test_rejects_a_wrong_target_or_verdict(self):
        case, cert = self.cases[0], self.answers[0]
        target = {e: 2 * c for e, c in cert.target.items()}
        with self.assertRaisesRegex(checks.CheckError, "target is wrong"):
            self.replay(case, "FEASIBLE", target, dict(cert.sigma.items()))
        with self.assertRaisesRegex(checks.CheckError, "verdict"):
            self.replay(case, "INFEASIBLE_AT_DEGREE", dict(cert.target.items()), None)


class TextParser(unittest.TestCase):
    def test_reads_the_canonical_form(self):
        self.assertEqual(checks.parse_terms("-x1^2 - 1/2*x1*x3 + 3", 4),
                         {checks.var(4, 0, 0): -1, checks.var(4, 0, 2): checks.Fraction(-1, 2),
                          checks.var(4): 3})
        self.assertEqual(checks.parse_terms("0", 4), {})

    def test_rejects_junk(self):
        with self.assertRaises(checks.CheckError):
            checks.parse_terms("2*y1", 4)


if __name__ == "__main__":
    unittest.main()
