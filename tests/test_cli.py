"""End-to-end command line tests driving main() directly."""
import collections
import functools
import gc
import hashlib
import inspect
import json
import random
import shutil
import weakref
from pathlib import Path

import pytest

from nodal import Ring, cli, groebner, ideals
from nodal.cli import main
from nodal.report import VerdictReport
from nodal.validators import STATEMENTS

FIXTURES = Path(__file__).parent.parent / "fixtures"

POINTS = """\
ring p=32003 vars=x0,x1,x2
generator: x0*x1
generator: x0*x2
generator: x1*x2
"""

TWO_LINES = """\
ring p=32003 vars=x0,x1,x2
component: x0
component: x1
"""

CUSP = """\
ring p=32003 vars=x0,x1,x2
implicit: x1^2*x2 - x0^3
"""


@pytest.fixture
def points_fix(tmp_path):
    p = tmp_path / "points.fix"
    p.write_text(POINTS)
    return p


@pytest.fixture
def curve_fix(tmp_path):
    p = tmp_path / "lines.fix"
    p.write_text(TWO_LINES)
    return p


class TestQueryCommands:
    def test_gb_text(self, points_fix, capsys):
        assert main(["gb", str(points_fix)]) == 0
        out = capsys.readouterr().out
        assert "x0*x1" in out

    def test_gb_json_schema(self, points_fix, capsys):
        assert main(["gb", str(points_fix), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["prime"] == 32003
        assert len(payload["basis"]) == 3

    def test_gb_prime_override(self, points_fix, capsys):
        assert main(["gb", str(points_fix), "--prime", "32009", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["prime"] == 32009

    def test_resolve(self, points_fix, capsys):
        assert main(["resolve", str(points_fix), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["twists"] == [[0], [2, 2, 2], [3, 3]]
        assert payload["regularity"] == 1

    def test_betti(self, points_fix, capsys):
        assert main(["betti", str(points_fix)]) == 0
        assert capsys.readouterr().out.strip()

    def test_hilbert(self, points_fix, capsys):
        assert main(["hilbert", str(points_fix), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # three reduced points: constant Hilbert polynomial 3
        assert payload["hilbert"]["polynomial"] == ["3"]

    def test_conductor(self, curve_fix, capsys):
        assert main(["conductor", str(curve_fix), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["delta"] == 1
        assert report["regularity"] == 1
        assert report["degree_d_syzygies"] == 1
        assert report["route"] == "component-product"

    def test_conductor_needs_curve(self, points_fix, capsys):
        assert main(["conductor", str(points_fix)]) == 2
        assert "curve fixture" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["gb", str(tmp_path / "absent.fix")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.fix"
        bad.write_text("not a fixture\n")
        assert main(["gb", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_line_pair_conic_component_refused(self, tmp_path, capsys):
        # x0*x1 listed as one component is two lines, not an irreducible
        # conic; counted as one it would make regularity-syzygy FAIL
        p = tmp_path / "pair.fix"
        p.write_text(
            "ring p=32003 vars=x0,x1,x2\ncomponent: x0*x1\ncomponent: x2\n"
        )
        assert main(["conductor", str(p)]) == 2
        assert "pair of lines" in capsys.readouterr().err
        args = ["verify", "--statement", "regularity-syzygy", "--fixture", str(p)]
        assert main(args) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_cusp_is_certificate_failure(self, tmp_path, capsys):
        p = tmp_path / "cusp.fix"
        p.write_text(CUSP)
        assert main(["conductor", str(p)]) == 1
        assert "certificate failure" in capsys.readouterr().err

    def test_degree_cap(self, points_fix, capsys):
        assert main(["gb", str(points_fix), "--degree-cap", "1"]) == 3
        assert "degree cap" in capsys.readouterr().err

    def test_degree_cap_limit(self, points_fix, capsys):
        # order keys hold exponents up to 255, and so caps up to 255
        assert main(["gb", str(points_fix), "--degree-cap", "255"]) == 0
        capsys.readouterr()
        for args in (
            ["gb", str(points_fix), "--degree-cap", "256"],
            ["verify", "--statement", "linkage", "--degree-cap", "256"],
            ["corpus", str(FIXTURES), "--degree-cap", "256"],
        ):
            assert main(args) == 2
            assert "--degree-cap" in capsys.readouterr().err

    def test_prime_limit(self, points_fix, capsys):
        # 2^31 - 1 is the largest prime exact int64 elimination allows
        assert main(["gb", str(points_fix), "--prime", "2147483647", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["prime"] == 2147483647
        for args in (
            ["gb", str(points_fix), "--prime", "2147483659"],
            ["verify", "--statement", "linkage", "--prime", "2147483659"],
            ["corpus", str(FIXTURES), "--prime", "4294967311"],
        ):
            assert main(args) == 2
            assert "--prime" in capsys.readouterr().err

    def test_header_prime_limit(self, tmp_path, capsys):
        p = tmp_path / "big.fix"
        p.write_text(POINTS.replace("p=32003", "p=2147483659"))
        assert main(["gb", str(p)]) == 2
        assert "parse error" in capsys.readouterr().err


@pytest.fixture
def engine_caps(monkeypatch):
    """The cap of each Macaulay engine run, in call order."""
    caps = []
    engine = groebner._macaulay_engine

    def counted(p, n, twists, inputs, keyf, cap, *args, **kwargs):
        caps.append(cap)
        return engine(p, n, twists, inputs, keyf, cap, *args, **kwargs)

    monkeypatch.setattr(groebner, "_macaulay_engine", counted)
    return caps


class TestDegreeCapFlag:
    """--degree-cap is the cap of every ring a command builds, so every
    basis obeys it and none is computed twice under two caps."""

    def runs_at(self, args, caps, capsys):
        assert main(args) == 0
        capsys.readouterr()
        runs = list(caps)
        caps.clear()
        return runs

    @pytest.mark.parametrize(
        "args",
        [
            ["conductor", str(FIXTURES / "cubic-two-conics.fix")],
            ["verify", "--statement", "nodal-curve-search"],
            ["verify", "--all"],
        ],
        ids=["conductor", "curve-search", "every-statement"],
    )
    def test_every_run_at_the_flag_cap(self, args, engine_caps, capsys):
        default = self.runs_at(args, engine_caps, capsys)
        assert default and set(default) == {40}
        for cap in ("39", "60"):
            runs = self.runs_at(args + ["--degree-cap", cap], engine_caps, capsys)
            assert runs == [int(cap)] * len(default)

    def test_fixture_parsing_obeys_the_flag(self, tmp_path, capsys):
        # for a generic form of degree 16, the Jacobian basis with which
        # CurveSpec checks squarefreeness reaches degree 43
        ring = Ring("x0,x1,x2")
        form = ring.random_form(16, random.Random(16))
        path = tmp_path / "degree16.fix"
        path.write_text(f"ring p=32003 vars=x0,x1,x2\nimplicit: {form}\n")
        assert main(["gb", str(path)]) == 3
        assert "past the cap 40" in capsys.readouterr().err
        assert main(["gb", str(path), "--degree-cap", "100", "--json"]) == 0
        monic = form * pow(form.lead_coefficient(), -1, ring.p)
        assert json.loads(capsys.readouterr().out)["basis"] == [str(monic)]


class TestVerify:
    def test_single_statement(self, capsys):
        assert main(["verify", "--statement", "linkage"]) == 0
        out = capsys.readouterr().out
        assert "linkage" in out
        assert "pass" in out

    def test_statement_with_parameter(self, capsys):
        rc = main(["verify", "--statement", "line-arrangement", "--lines", "2"])
        assert rc == 0

    def test_every_runner_parameter_has_a_flag(self):
        parser = cli.build_parser()
        for statement, runner in STATEMENTS.items():
            names = list(inspect.signature(runner).parameters)
            assert names[:4] == ["seed", "prime", "cap", "fixture"]
            for name in names[4:]:
                flag = "--" + name.replace("_", "-")
                args = parser.parse_args(
                    ["verify", "--statement", statement, flag, "3"]
                )
                assert getattr(args, name) == 3, (statement, name)

    def test_size_flags_reach_only_runners_that_take_them(
        self, monkeypatch, capsys
    ):
        calls = {}

        def spy_on(statement, runner):
            @functools.wraps(runner)  # the signature routes the flags
            def spy(seed, prime, cap, fixture, **params):
                calls[statement] = params
                return VerdictReport.from_comparison(statement, prime, {}, {})

            return spy

        for statement, runner in list(STATEMENTS.items()):
            monkeypatch.setitem(STATEMENTS, statement, spy_on(statement, runner))
        assert main(["verify", "--all", "--lines", "4", "--emm", "3"]) == 0
        assert calls == {s: {} for s in STATEMENTS} | {
            "line-arrangement": {"lines": 4},
            "determinantal-points": {"emm": 3},
            "nodal-curve-search": {"emm": 3},
        }

    def test_json_report_shape(self, capsys):
        rc = main(["verify", "--statement", "partial-normalization", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        (report,) = payload["reports"]
        assert report["pass"] is True
        assert report["statement_id"] == "partial-normalization"

    def test_second_prime(self, capsys):
        rc = main(
            ["verify", "--statement", "linkage", "--second-prime", "--json"]
        )
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["prime"] for r in reports] == [32003, 32009]
        assert all(r["pass"] for r in reports)

    def test_fixture_flag(self, curve_fix, capsys):
        rc = main(
            ["verify", "--statement", "two-route", "--fixture", str(curve_fix)]
        )
        assert rc == 0

    def test_statement_and_all_conflict(self, capsys):
        assert main(["verify", "--statement", "linkage", "--all"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_statement_nor_all(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("component", ["-1", "5"])
    def test_component_out_of_range_refused(self, component, capsys):
        # the built example has two components, 0 and 1
        args = ["verify", "--statement", "component-sequence"]
        assert main(args + ["--component", component]) == 2
        assert "component must lie in 0..1" in capsys.readouterr().err

    def test_unknown_statement_lists_ids(self, capsys):
        assert main(["verify", "--statement", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown statement" in err
        assert "two-route" in err and "linkage" in err


class TestCorpus:
    def test_small_corpus(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "two-lines.fix", tmp_path)
        shutil.copy(FIXTURES / "triangle-points.fix", tmp_path)
        assert main(["corpus", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 fixtures" in out
        assert "all passing" in out
        assert "FAIL" not in out

    def test_json_bytes_are_stable(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "two-lines.fix", tmp_path)
        assert main(["corpus", str(tmp_path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["corpus", str(tmp_path), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_fixture_rings_freed(self, tmp_path, monkeypatch):
        # a ring's basis cache holds nothing that points back at the ring,
        # so every fixture's ring is freed with no cyclic collection
        shutil.copy(FIXTURES / "two-lines.fix", tmp_path)
        shutil.copy(FIXTURES / "triangle-points.fix", tmp_path)
        rings = []

        def capture(path, prime, cap, _load=cli._load_fixture):
            fx = _load(path, prime, cap)
            rings.append(weakref.ref(fx.ring))
            return fx

        monkeypatch.setattr(cli, "_load_fixture", capture)
        gc.collect()
        gc.disable()
        try:
            assert main(["corpus", str(tmp_path)]) == 0
            assert len(rings) == 2
            assert all(r() is None for r in rings)
        finally:
            gc.enable()

    def test_numerators_computed_once_per_cache_entry(self, monkeypatch, capsys):
        # a basis rebuilt from its cache entry reads the leads and Hilbert
        # numerator the entry keeps; tallied on a warm pass, after a first one
        assert main(["corpus", str(FIXTURES)]) == 0
        init = groebner._CacheEntry.__init__
        basis = groebner._CacheEntry.basis
        prop = groebner.GroebnerBasis.hilbert_numerator
        compute = ideals.hilbert_numerator
        reading = []  # the basis whose numerator is being read
        computed = collections.Counter()  # cache entry -> computations
        rebuilds = []

        def tagging_init(entry, gb):
            init(entry, gb)
            gb.entry = entry

        def tagging_basis(entry):
            gb = basis(entry)
            if not hasattr(gb, "entry"):
                rebuilds.append(entry)
                gb.entry = entry
            return gb

        def reading_numerator(gb):
            reading.append(gb)
            try:
                return prop.fget(gb)
            finally:
                reading.pop()

        def counting(leads):
            if reading and hasattr(reading[-1], "entry"):
                computed[reading[-1].entry] += 1
            return compute(leads)

        monkeypatch.setattr(groebner._CacheEntry, "__init__", tagging_init)
        monkeypatch.setattr(groebner._CacheEntry, "basis", tagging_basis)
        monkeypatch.setattr(
            groebner.GroebnerBasis, "hilbert_numerator", property(reading_numerator)
        )
        monkeypatch.setattr(ideals, "hilbert_numerator", counting)
        assert main(["corpus", str(FIXTURES)]) == 0
        assert computed and set(computed.values()) == {1}
        # rebuilt bases asked again and found the entry's numerator
        assert len(rebuilds) > len(computed)

    def test_divided_numerators_computed_once_per_cache_entry(self, monkeypatch):
        # saturation's divided-out lead numerator sits in the rotated basis's
        # memo; tallied per cache entry on a warm pass, after a first one
        assert main(["corpus", str(FIXTURES)]) == 0
        init = groebner._CacheEntry.__init__
        divided = ideals._divided_numerator
        compute = ideals.hilbert_numerator
        reading = []  # the basis whose divided-out numerator is being read
        asked = collections.Counter()  # cache entry -> reads
        computed = collections.Counter()  # cache entry -> computations

        def tagging_init(entry, gb):
            init(entry, gb)
            gb.derived["entry"] = entry

        def reading_divided(gb, var):
            reading.append(gb)
            asked[gb.derived.get("entry")] += 1
            try:
                return divided(gb, var)
            finally:
                reading.pop()

        def counting(leads):
            if reading:
                computed[reading[-1].derived.get("entry")] += 1
            return compute(leads)

        monkeypatch.setattr(groebner._CacheEntry, "__init__", tagging_init)
        monkeypatch.setattr(ideals, "_divided_numerator", reading_divided)
        monkeypatch.setattr(ideals, "hilbert_numerator", counting)
        assert main(["corpus", str(FIXTURES)]) == 0
        assert None not in asked  # every rotated basis has a cache entry
        assert computed and set(computed.values()) == {1}
        # entries asked again found their numerator
        assert sum(asked.values()) > len(computed)

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path)]) == 2
        assert "no .fix fixtures" in capsys.readouterr().err

    def test_not_a_directory(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path / "nowhere")]) == 2


class TestReferenceOutputs:
    """The --json reports of the full corpus and of every statement.

    Every number the program prints feeds these bytes, so a change that
    moves any of them fails here.  The digests change only on purpose.
    """

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["corpus", str(FIXTURES), "--json"],
                "ca179cd32e5cb74380cc9fffe0a92da1fa1b6ae9955276aa94f84fce9c1b01da",
            ),
            (
                ["corpus", str(FIXTURES), "--json", "--prime", "32009"],
                "fc7e3b21cce7cac565f6134b9cd4242bb74723b5492fd0bd1cb675fbe93ace25",
            ),
            (
                ["verify", "--all", "--second-prime", "--json"],
                "15aac69ef4cd9d5ab02f208d030083e44f5ce7f6a2d7194474a55a00c4b12c07",
            ),
        ],
        ids=["corpus-32003", "corpus-32009", "verify-all"],
    )
    def test_json_digest(self, args, digest, capsys):
        assert main(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
