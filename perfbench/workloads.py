"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: `run_pass(seed)` performs one
checked pass and returns a `PassResult`.  The program seed of every pass is
the benchmark seed itself, so a run repeats one input and different seeds give
different inputs.  Where `digests.json` holds a digest for the workload and
seed (recorded at the seed commit), the canonical output must match it byte
for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import nodal
import nodal.cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
PRIMES = (nodal.DEFAULT_PRIME, nodal.SECOND_PRIME)
# criterion 3: determinantal point scheme at m = 3
M3_DELTA, M3_GEN_DEGREES, M3_REG = 57, (9, 9, 9, 9), 13
CORPUS_VERDICTS_PER_PRIME = 61


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # one per verdict attempted, s
    failed: int = 0
    digests: dict = field(default_factory=dict)  # output label -> sha256
    problems: list = field(default_factory=list)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def load_digests():
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Workload:
    name = ""
    why = ""

    def __init__(self, recorded=None):
        table = (recorded if recorded is not None else load_digests()).get(self.name, {})
        self.recorded = table

    def check_digest(self, result, label, seed, text):
        digest = sha256(text)
        result.digests[label] = digest
        want = self.recorded.get(str(seed), {}).get(label)
        if want is not None and want != digest:
            result.problems.append(f"{label}: sha256 {digest[:12]} != recorded {want[:12]}")
            return False
        return True

    def run_pass(self, seed: int) -> PassResult:
        raise NotImplementedError


class CurveSearch(Workload):
    name = "curve-search"
    why = ("nodal-curve-search at p=32003: large homogeneous bases, so Macaulay "
           "preprocessing, rref and recomputed bases dominate")

    def run_pass(self, seed):
        result = PassResult()
        t0 = time.perf_counter()
        ok = False
        try:
            rep = nodal.run_statement("nodal-curve-search", seed=seed, prime=PRIMES[0])
            if not rep.ok:
                result.problems.append("verdict not ok: " + canonical_json(rep.computed))
            digest_ok = self.check_digest(
                result, "report", seed, canonical_json(rep.as_dict()))
            ok = rep.ok and digest_ok
        except nodal.NodalError as e:
            result.problems.append(f"{type(e).__name__}: {e}")
        result.latencies.append(time.perf_counter() - t0)
        result.failed += not ok
        return result


class PointsM3(Workload):
    name = "points-m3"
    why = ("m=3 determinantal points then their resolution: the reducedness "
           "certificate and ring multiplication dominate; the basis engine is bypassed")

    def run_pass(self, seed):
        result = PassResult()
        t0 = time.perf_counter()
        ok = False
        try:
            pts = nodal.determinantal_points(3, seed=seed)
            res = nodal.resolve_ideal(pts)
            table = nodal.betti_table(res)
            got = (nodal.scheme_length(pts), tuple(res.twists[0]), table.regularity())
            if got != (M3_DELTA, M3_GEN_DEGREES, M3_REG):
                result.problems.append(f"criterion-3 invariants (delta, degrees, reg) = {got}")
            text = canonical_json({"basis": [str(g) for g in pts.gb().elements],
                                   "betti": table.as_dict()})
            digest_ok = self.check_digest(result, "basis+betti", seed, text)
            ok = got == (M3_DELTA, M3_GEN_DEGREES, M3_REG) and digest_ok
        except nodal.NodalError as e:
            result.problems.append(f"{type(e).__name__}: {e}")
        result.latencies.append(time.perf_counter() - t0)
        result.failed += not ok
        return result


class Corpus(Workload):
    name = "corpus"
    why = ("the fixture corpus through the CLI at two primes: 122 small verdicts, "
           "so per-call overhead, resolutions and the small-ideal path")

    def run_pass(self, seed):
        result = PassResult()
        for prime in PRIMES:
            self._one_prime(result, seed, prime)
        return result

    def _one_prime(self, result, seed, prime):
        """One `nodal corpus fixtures --json` in process, with a clock per verdict.

        The clock wraps the two `nodal.cli` names that each produce one verdict;
        it costs two clock reads per verdict and is removed before returning.
        """
        cli = nodal.cli
        latencies = []

        def clocked(fn):
            def verdict(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latencies.append(time.perf_counter() - t0)
            return verdict

        originals = (cli._run_fixture_statement, cli.cm_regularity_crosscheck)
        cli._run_fixture_statement = clocked(originals[0])
        cli.cm_regularity_crosscheck = clocked(originals[1])
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(["corpus", str(FIXTURES), "--json",
                               "--prime", str(prime), "--seed", str(seed)])
        finally:
            cli._run_fixture_statement, cli.cm_regularity_crosscheck = originals
        result.latencies += latencies
        text = out.getvalue()
        try:
            payload = json.loads(text)
            reports = [r for fx in payload["results"] for r in fx["reports"]]
        except (json.JSONDecodeError, KeyError, TypeError):
            reports = []
        failed = sum(not r["pass"] for r in reports)
        if rc != 0 or len(reports) != CORPUS_VERDICTS_PER_PRIME:
            result.problems.append(
                f"p={prime}: exit {rc}, {len(reports)} verdicts")
            failed = max(len(latencies), 1)
        elif not self.check_digest(result, f"json@{prime}", seed, text):
            failed = len(reports)
        elif failed:
            result.problems.append(f"p={prime}: {failed} verdicts not ok")
        result.failed += failed


WORKLOADS = {w.name: w for w in (CurveSearch, PointsM3, Corpus)}
