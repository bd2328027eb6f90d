"""Independent checks of one comparison report.

Every check compares the report with properties of the method or with values
recomputed by the benchmark's own evaluator (evaluator.py) from the scenario
document the program was given. Nothing is compared with a stored copy of a
report. `check_report` returns how many operations the report holds (one per
property x mode verdict, plus one for its deviation records), how many of
them failed (a checker error recorded in the witness), and the problems
found in the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from evaluator import Model, circle_distance, reduce_angle
from truth import TRUTH
from workloads import PROPERTIES

ONE_DIRECTIONAL = ("periodic_points", "dense_periodicity")
MODES = (("verdict_nonautonomous", "F"), ("verdict_limit", "f"))
#: one verdict per property and mode, plus one for the deviation records
OPS_PER_REPORT = 2 * len(PROPERTIES) + 1
#: replayed values follow the program's float operations, so they agree far below this
REPLAY_TOL = 1e-9
#: closed-form deviation sums are compared to this
SUM_TOL = 1e-12
COMMUTING_ROTATIONS = ("alternating-rotation", "inverse-square-rotation")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _near(a: float, b: float, tol: float = REPLAY_TOL) -> bool:
    return abs(a - b) <= tol


class _Checker:
    def __init__(self, doc: dict, report: dict):
        self.doc = doc
        self.report = report
        self.cfg = doc["check"]
        self.family = doc["family"].get("builtin")
        self.models = {mode: Model(doc, mode) for mode in ("F", "f")}
        self.result = Result()

    def problem(self, where: str, what: str) -> None:
        self.result.problems.append(f"{self.doc['label']} {where}: {what}")

    # -- rows ------------------------------------------------------------

    def run(self) -> Result:
        rows = self.report.get("rows", [])
        names = tuple(r.get("property") for r in rows)
        if names != PROPERTIES:
            self.problem("rows", f"expected the twelve properties in order, got {names}")
        for row in rows:
            self.check_row(row)
        self.result.attempted += 1
        try:
            self.check_deviation()
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.problem("deviation", f"malformed records: {type(exc).__name__}: {exc}")
        return self.result

    def check_row(self, row: dict) -> None:
        prop = row["property"]
        outcomes = {}
        for key, mode in MODES:
            self.result.attempted += 1
            verdict = row[key]
            witness = verdict.get("witness", {})
            if "error" in witness:
                self.result.failed += 1
                continue
            outcome = verdict["outcome"]
            outcomes[mode] = outcome
            where = f"{prop}[{mode}]"
            truth = TRUTH.get(self.family, {}).get((prop, mode))
            if truth is not None and outcome != "inconclusive":
                value, reason = truth
                if (outcome == "holds") != value:
                    self.problem(where, f"verdict {outcome} contradicts the known truth: {reason}")
            try:
                self.replay(prop, mode, outcome, witness, where)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self.problem(where, f"witness cannot be replayed: {type(exc).__name__}: {exc}")
        if len(outcomes) == 2:
            expected = self.consistent(prop, outcomes["F"], outcomes["f"], row["theorem_applicable"])
            if row["consistent"] is not expected:
                self.problem(prop, f"consistent={row['consistent']} but the verdicts give {expected}")
        if row["consistent"] is not True:
            self.problem(prop, "row is inconsistent with its rule")

    @staticmethod
    def consistent(prop: str, vF: str, vf: str, applicable: bool) -> bool:
        if not applicable or "inconclusive" in (vF, vf):
            return True
        if prop in ONE_DIRECTIONAL:
            return not (vF == "holds" and vf == "refuted")
        return vF == vf

    # -- witness replay --------------------------------------------------

    def replay(self, prop: str, mode: str, outcome: str, w: dict, where: str) -> None:
        m = self.models[mode]
        rule = w.get("rule")
        if prop == "equicontinuity" and outcome == "refuted":
            self.replay_separation(m, w, where)
        if prop == "periodic_points" and outcome == "holds":
            self.replay_periodic(m, w["witness"], where)
        if prop == "dense_periodicity" and outcome == "holds":
            for entry in w["witnesses"]:
                self.replay_periodic(m, entry, where)
                if m.dist(m.point(entry["point"]), m.point(entry["center"])) >= self.cfg["eps"]:
                    self.problem(where, "periodic witness lies outside its ball")
        if prop == "periodic_points" and outcome == "refuted" and "min_recurrence_gap" in w:
            self.replay_recurrence(m, w, where)
        if rule == "nonzero-displacement":
            self.replay_nonzero_displacement(m, w, where)
        if rule == "eventually-fixed-orbit":
            self.replay_fixed_orbit(m, w, where)
        if rule == "displacement-confinement":
            self.replay_confinement(m, prop, w, where)
        if rule == "collapse":
            self.replay_collapse(m, w, where)
        if rule == "isometric-spacing":
            gap = m.dist(m.point(w["U1"]), m.point(w["U2"]))
            if not _near(gap, w["source_gap"]):
                self.problem(where, f"source gap {w['source_gap']} replays as {gap}")
        if "cell_verdict" in w and outcome == "refuted":
            self.replay_cell_refutation(m, prop, w, where)

    def replay_separation(self, m: Model, w: dict, where: str) -> None:
        x, y = (m.point(p) for p in w["pair"])
        t = int(w["time"])
        if not 0 <= t <= self.cfg["horizon"]:
            self.problem(where, f"separation time {t} lies outside the horizon")
            return
        if m.dist(x, y) >= w["delta_floor"]:
            self.problem(where, "the pair does not start within delta_floor")
        sep = m.dist(m.orbit(x, t)[t], m.orbit(y, t)[t])
        if not _near(sep, w["separation"]):
            self.problem(where, f"separation {w['separation']} at n={t} replays as {sep}")
        if w["separation"] <= self.cfg["eps"]:
            self.problem(where, "refuting separation does not exceed eps")

    def replay_periodic(self, m: Model, w: dict, where: str) -> None:
        x = m.point(w["point"])
        period, reps = int(w["period"]), int(w["repetitions"])
        orbit = m.orbit(x, period * reps)
        gaps = [m.dist(orbit[period * k], x) for k in range(1, reps + 1)]
        if len(gaps) != len(w["revisit_gaps"]) or not all(
            _near(a, b) for a, b in zip(gaps, w["revisit_gaps"])
        ):
            self.problem(where, f"revisit gaps {w['revisit_gaps']} replay as {gaps}")
        if any(g > self.cfg["tol"] for g in gaps):
            self.problem(where, f"period {period} does not return within tol")
        for shorter in range(1, period):
            if all(m.dist(orbit[shorter * k], x) <= self.cfg["tol"] for k in range(1, reps + 1)):
                self.problem(where, f"period {period} is not least: {shorter} also returns")
                break

    def replay_recurrence(self, m: Model, w: dict, where: str) -> None:
        P, R, tol = int(self.cfg["max_period"]), int(self.cfg["repetitions"]), self.cfg["tol"]
        grid = m.grid()
        best = float("inf")
        for x in grid:
            orbit = m.orbit(x, P * R)
            best = min(best, min(m.dist(p, x) for p in orbit[1 : P + 1]))
            for n in range(1, P + 1):
                if all(m.dist(orbit[n * k], x) <= tol for k in range(1, R + 1)):
                    self.problem(where, f"a sampled point has period {n}, yet periodicity was refuted")
                    break
        if w["sampled"] != len(grid) or not _near(best, w["min_recurrence_gap"]):
            self.problem(
                where, f"closest return {w['min_recurrence_gap']} over {w['sampled']} points "
                f"replays as {best} over {len(grid)}"
            )

    def _displacements(self, m: Model, horizon: int) -> list[float]:
        if m.amount is None:
            raise ValueError("displacement rules need a rotation family")
        total, out = 0.0, []
        for a in m.step_amounts(horizon):
            total += a
            out.append(total)
        return out

    def _tail(self, m: Model, horizon: int) -> float:
        if m.mode == "f":
            if m.limit_amount != 0.0:
                raise ValueError("confinement needs an identity limit")
            return 0.0
        if m.tail_bound is None:
            raise ValueError("confinement needs a displacement tail bound")
        return m.tail_bound(horizon)

    def replay_nonzero_displacement(self, m: Model, w: dict, where: str) -> None:
        H = int(self.cfg["max_period"]) * int(self.cfg["repetitions"])
        gaps = [circle_distance(reduce_angle(d), 0.0) for d in self._displacements(m, H)]
        if not _near(min(gaps), w["min_displacement"]):
            self.problem(where, f"min displacement {w['min_displacement']} replays as {min(gaps)}")
        if min(gaps) <= self.cfg["tol"] + self._tail(m, H):
            self.problem(where, "some window rotates by less than tol plus the tail")

    def replay_fixed_orbit(self, m: Model, w: dict, where: str) -> None:
        x, p, t = m.point(w["start"]), m.point(w["stuck_at"]), m.point(w["missed_target"])
        stuck_from = int(w["stuck_from"])
        cutoff = m.constant_from()
        if cutoff is None or stuck_from < cutoff - 1:
            self.problem(where, f"step maps are not known to be the limit after step {stuck_from}")
            return
        orbit = m.orbit(x, stuck_from)
        if not _near(m.dist(orbit[-1], p), 0.0):
            self.problem(where, f"orbit is at {orbit[-1]} at step {stuck_from}, not {p}")
        if m.limit(p) != p:
            self.problem(where, "stuck point is not fixed by the limit")
        gap = min(m.dist(q, t) for q in orbit)
        if not _near(gap, w["gap"]) or gap <= self.cfg["eps"]:
            self.problem(where, f"gap {w['gap']} replays as {gap}")

    def replay_confinement(self, m: Model, prop: str, w: dict, where: str) -> None:
        N = int(self.cfg["horizon"])
        disp = self._displacements(m, N)
        tail = self._tail(m, N)
        if not _near(tail, w["tail_bound"]):
            self.problem(where, f"tail bound {w['tail_bound']} should be {tail}")
        if prop == "minimality":
            legs = [(w["start"], w["missed_target"])]
            need = self.cfg["eps"] + self.cfg["tol"]
        elif "from_center" in w:
            legs = [(w["from_center"], w["to_center"])]
            need = 2 * self.cfg["eps"] + self.cfg["tol"]
        else:
            legs = [(w["U1"], w["V1"]), (w["U2"], w["V2"])]
            need = 2 * self.cfg["eps"] + self.cfg["tol"]
        replayed = []
        for src, dst in legs:
            base = m.point(dst) - m.point(src)
            gaps = [circle_distance(reduce_angle(base - d), 0.0) for d in disp]
            replayed.append((min(gaps), gaps[-1]))
        match = [(g, last) for g, last in replayed if _near(g, w["min_gap"])]
        if not match:
            self.problem(where, f"min gap {w['min_gap']} replays as {[g for g, _ in replayed]}")
            return
        g, last = match[0]
        if g < need or last - tail < need:
            self.problem(where, f"confined gap {g} does not clear {need}")

    def replay_collapse(self, m: Model, w: dict, where: str) -> None:
        if m.builtin != "plateau-tent":
            raise ValueError("collapse replay knows the plateau-tent pieces only")
        eps, N = self.cfg["eps"], int(self.cfg["horizon"])
        targets = [(w["from_center"], w["to_center"])] if "from_center" in w else [
            (w["U1"], w["V1"]), (w["U2"], w["V2"])
        ]
        for src, dst in targets:
            c = m.point(src)
            lo, hi = max(0.0, c - eps), min(1.0, c + eps)
            collapse = 0 if lo == hi else None
            for n in range(1, N + 1):
                f = m.step_map(n)
                vals = [f(lo), f(hi)] + ([f(0.5)] if lo < 0.5 < hi else [])
                lo, hi = min(vals), max(vals)
                if collapse is None and lo == hi:
                    collapse = n
            stuck = (lo + hi) / 2.0
            gap = m.dist(stuck, m.point(dst))
            if collapse != w["collapse_step"] or not _near(stuck, m.point(w["stuck_at"])):
                continue
            if not _near(gap, w["gap"]):
                continue
            if m.limit(stuck) != stuck or m.constant_from() is None:
                self.problem(where, "collapsed point is not a fixed point of the constant tail")
            if gap < eps:
                self.problem(where, "collapsed point lies within eps of its target")
            return
        self.problem(
            where, f"no ball collapses at step {w['collapse_step']} to {w['stuck_at']} "
            f"at distance {w['gap']} from its target"
        )

    def replay_cell_refutation(self, m: Model, prop: str, w: dict, where: str) -> None:
        sample = w["cell_verdict"]["witness"]["sample_verdict"]["witness"]
        x, y = (m.point(p) for p in sample["pair"])
        if "distance" in sample:
            d = m.dist(x, y)
            if not _near(d, sample["distance"]):
                self.problem(where, f"pair distance {sample['distance']} replays as {d}")
            if prop == "proximal_cell_density" and d < self.cfg["eps"]:
                self.problem(where, "refuting pair is closer than eps")
        elif x != y:
            self.problem(where, "refuting pair has no distance and is not a point with itself")

    # -- deviation records -----------------------------------------------

    def check_deviation(self) -> None:
        summary = self.report["bound_summary"]
        records = summary["deviation_records"]
        mF, mf = self.models["F"], self.models["f"]
        x0 = mF.grid()[0]
        k_max = min(int(self.cfg["horizon"]), 50)
        if [r["k"] for r in records] != list(range(1, k_max + 1)):
            self.problem("deviation", f"records should cover k = 1..{k_max}")
            return
        if mF.point(summary["deviation_x"]) != x0:
            self.problem("deviation", "records are not taken at the first grid point")
        orbit_F, orbit_f = mF.orbit(x0, k_max), mf.orbit(x0, k_max)
        tol = self.cfg["tol"]
        bound = 0.0
        violations = []
        for rec in records:
            k = rec["k"]
            bound += mF.term(k)
            measured = mF.dist(orbit_F[k], orbit_f[k])
            where = f"deviation[k={k}]"
            if rec["n"] != 0 or mF.point(rec["x"]) != x0:
                self.problem(where, "record is not taken from x0 at n = 0")
            if not _near(rec["measured"], measured):
                self.problem(where, f"measured {rec['measured']} replays as {measured}")
            if not _near(rec["bound"], bound, SUM_TOL):
                self.problem(where, f"bound {rec['bound']} should be {bound}")
            if rec["holds"] is not (measured <= bound + tol):
                self.problem(where, f"holds={rec['holds']} for {measured} against {bound}")
            if rec["bound_exact"] is not mF.terms_exact:
                self.problem(where, f"bound_exact should be {mF.terms_exact}")
            if self.family in COMMUTING_ROTATIONS and not rec["holds"]:
                self.problem(where, "the bound fails for a commuting rotation family")
            if self.family == "inverse-square-rotation" and not (
                _near(rec["measured"], bound, SUM_TOL) and _near(rec["bound"], bound, SUM_TOL)
            ):
                self.problem(where, f"record differs from sum 1/i^2 = {bound}")
            if not rec["holds"]:
                violations.append(k)
        if summary["all_hold"] is not (not violations):
            self.problem("deviation", f"all_hold={summary['all_hold']} but violations at {violations}")
        if self.family == "perturbed-doubling" and not any(k <= 5 for k in violations):
            self.problem("deviation", "no bound violation within five steps of 0")


def check_report(doc: dict, report: dict) -> Result:
    """Check one report against the scenario document it was made from."""
    return _Checker(doc, report).run()
