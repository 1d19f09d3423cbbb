import dataclasses
import io
import json
import math

import numpy as np
import pytest

from blaschkelab import FiniteBlaschkeProduct, fatou_quotient, random_product
from blaschkelab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SpecFileError,
    load_product_spec,
    main,
    render_product_svg,
)

GOLDEN_SEED42_ORDER5 = """\
re,im,multiplicity,region,in_hull
-0.31741379710750872,0.018479258553050375,1,interior,true
-0.10247373311692667,0.55858377077795252,1,interior,true
0.46741653509854642,0.13030357633292239,1,interior,true
0.5345453131860769,0.40619113626712716,1,interior,true
-3.1398196918920318,0.18279463723746009,1,exterior,n/a
-0.31773156155865445,1.7319530415476212,1,exterior,n/a
1.1859547733232247,0.90118518496839606,1,exterior,n/a
1.985144039361959,0.55340654093529373,1,exterior,n/a
"""


def write_spec(tmp_path, B, name="spec.json"):
    path = tmp_path / name
    doc = {"gamma": [B.gamma.real, B.gamma.imag], "zeros": [[z.real, z.imag] for z in B.zeros]}
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        B = FiniteBlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.4))
        loaded = load_product_spec(write_spec(tmp_path, B))
        assert loaded == B

    def test_reports_offending_zero(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gamma": [1, 0], "zeros": [[0.5, 0], [2.0, 0]]}))
        with pytest.raises(SpecFileError, match=r"zeros\[1\]"):
            load_product_spec(str(path))

    def test_reports_malformed_pair(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gamma": [1, 0], "zeros": [[0.5]]}))
        with pytest.raises(SpecFileError, match=r"zeros\[0\]"):
            load_product_spec(str(path))

    def test_nan_zero_exits_usage(self, tmp_path):
        # json reads NaN, which passes any check written as abs(z) >= bound
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"gamma": [1, 0], "zeros": [[0.5, 0], [float("nan"), 0]]}))
        with pytest.raises(SpecFileError, match=r"zeros\[1\]"):
            load_product_spec(str(path))
        rc, _ = run(["critical-points", str(path)])
        assert rc == EXIT_USAGE

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _ = run(["critical-points", str(path)])
        assert rc == EXIT_USAGE


class TestCriticalPoints:
    def test_symmetric_pair(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.5, -0.5)))
        rc, out = run(["critical-points", spec, "--hull"])
        assert rc == EXIT_OK
        assert out == "re,im,multiplicity,region,in_hull\n0,0,1,interior,true\n"

    def test_square(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(2))
        rc, out = run(["critical-points", spec, "--hull"])
        assert rc == EXIT_OK
        assert "0,0,1,interior,true" in out

    def test_json_format(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.5, -0.5)))
        rc, out = run(["critical-points", spec, "--format", "json"])
        assert rc == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["multiplicity"] == 1
        assert rows[0]["in_hull"] == "n/a"

    @staticmethod
    def mp_critical_points(B, mpmath):
        """The 2 order - 2 zeros of B' to working precision: the roots of N' D - N D',
        N = prod (a_k - z) and D = prod (1 - conj(a_k) z), coefficients from
        the lowest degree up; call under mpmath.workdps(50)."""

        def times(p, q):
            out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
            for i, x in enumerate(p):
                for j, y in enumerate(q):
                    out[i + j] += x * y
            return out

        N, D = [mpmath.mpc(1)], [mpmath.mpc(1)]
        for a in B.zeros:
            a = mpmath.mpc(a.real, a.imag)
            N, D = times(N, [a, -1]), times(D, [1, -mpmath.conj(a)])
        dN, dD = ([i * p[i] for i in range(1, len(p))] for p in (N, D))
        # the degree-(2 order - 1) terms cancel
        P = [x - y for x, y in zip(times(dN, D), times(N, dD))][:-1]
        return mpmath.polyroots(P[::-1], maxsteps=200, extraprec=200)

    def test_golden_seed42_order5(self, tmp_path):
        rng = np.random.default_rng(np.random.PCG64(42))
        B = random_product(rng, 5, 0.9)
        spec = write_spec(tmp_path, B)
        rc, out = run(["critical-points", spec, "--hull"])
        assert rc == EXIT_OK
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            roots = self.mp_critical_points(B, mpmath)
            assert len(roots) == 8
            for line in out.splitlines()[1:]:
                p = complex(*map(float, line.split(",")[:2]))
                error = min(abs(mpmath.mpc(p.real, p.imag) - r) for r in roots)
                assert error <= 1e-15 * max(1.0, abs(p))
        assert out == GOLDEN_SEED42_ORDER5
        interior = [line for line in out.splitlines() if ",interior," in line]
        assert len(interior) == 4
        assert all(line.endswith("true") for line in interior)

    def test_order_one_has_no_critical_points(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.4,)))
        rc, out = run(["critical-points", spec, "--hull"])
        assert rc == EXIT_OK
        assert out == "re,im,multiplicity,region,in_hull\n"

    def test_missing_file(self):
        rc, _ = run(["critical-points", "/nonexistent/spec.json"])
        assert rc == EXIT_IO


class TestConverge:
    def test_square_radial_csv(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(2))
        argv = [
            "converge", spec, "--mode", "radial", "--gamma0", "1,0",
            "--rate", "0.5", "--count", "12", "--radius", "0.5",
        ]
        rc, out = run(argv)
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,a_re,a_im,gamma_re,gamma_im,sup_deviation,rot_re,rot_im"
        assert len(lines) == 13
        final = float(lines[-1].split(",")[5])
        assert final < 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.3, -0.2j)))
        argv = [
            "converge", spec, "--mode", "spiral", "--gamma0", "0,1",
            "--rate", "0.4", "--count", "8", "--radius", "0.7",
        ]
        assert run(argv) == run(argv)

    def test_order_one_rotation_unimodular(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.2,)))
        argv = [
            "converge", spec, "--mode", "radial", "--gamma0", "1,0",
            "--rate", "0.5", "--count", "6", "--radius", "0.5",
        ]
        rc, out = run(argv)
        assert rc == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            cols = line.split(",")
            rot = complex(float(cols[6]), float(cols[7]))
            assert abs(abs(rot) - 1.0) <= 1e-12

    def test_alternating_mode_shows_sign_flips(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(2))
        argv = [
            "converge", spec, "--mode", "alternating", "--gamma0", "1,0",
            "--rate", "0.35", "--count", "10", "--radius", "0.5",
        ]
        rc, out = run(argv)
        assert rc == EXIT_OK
        lines = out.strip().splitlines()[1:]
        gammas = [float(line.split(",")[3]) for line in lines]
        assert gammas == [(-1.0) ** k for k in range(1, 11)]
        # the renormalized sequence still converges on this family
        assert float(lines[-1].split(",")[5]) < 1e-4

    def test_bad_flags(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(2))
        rc, _ = run(["converge", spec, "--mode", "sideways", "--gamma0", "1,0",
                     "--rate", "0.5", "--count", "4", "--radius", "0.5"])
        assert rc == EXIT_USAGE


class TestPlot:
    def test_single_zero(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.4,)))
        out_path = tmp_path / "fig.svg"
        rc, _ = run(["plot", spec, "--out", str(out_path)])
        assert rc == EXIT_OK
        svg = out_path.read_text()
        assert svg.count("<circle") == 2  # unit circle + one zero marker
        assert "<line" not in svg  # no critical points for an automorphism
        assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg

    def test_triangle_markers(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct(1.0, (0.5, -0.5, 0.5j)))
        out_path = tmp_path / "fig.svg"
        rc, _ = run(["plot", spec, "--out", str(out_path)])
        assert rc == EXIT_OK
        svg = out_path.read_text()
        assert svg.count("<polyline") == 3  # triangle hull edges
        assert svg.count("<line") == 4  # two interior critical crosses

    def test_coincident_zeros_single_marker_with_label(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(3))
        out_path = tmp_path / "fig.svg"
        rc, _ = run(["plot", spec, "--out", str(out_path)])
        assert rc == EXIT_OK
        svg = out_path.read_text()
        assert svg.count('fill="#1f6f43"/>') == 1
        assert "x3" in svg

    def test_unwritable_target(self, tmp_path):
        spec = write_spec(tmp_path, FiniteBlaschkeProduct.monomial(2))
        rc, _ = run(["plot", spec, "--out", "/nonexistent-dir/fig.svg"])
        assert rc == EXIT_IO

    def test_render_deterministic(self):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5, 0.5j))
        assert render_product_svg(B) == render_product_svg(B)


class TestVerify:
    @pytest.mark.parametrize("suite,trials", [
        ("hull", 10),
        ("converge", 2),
        ("counterexample", 16),
        ("valence", 4),
        ("separation", 4),
        ("fatou", 3),
    ])
    def test_suites_pass(self, suite, trials):
        rc, out = run(["verify", "--suite", suite, "--trials", str(trials), "--seed", "7"])
        assert rc == EXIT_OK
        summary = json.loads(out)
        assert summary["pass"] is True
        assert summary["suite"] == suite
        assert summary["failure"] is None

    def test_counterexample_reports_split_limits(self):
        rc, out = run(["verify", "--suite", "counterexample"])
        assert rc == EXIT_OK
        summary = json.loads(out)
        assert summary["details"]["even_tends_to_plus_z"] is True
        assert summary["details"]["odd_tends_to_minus_z"] is True
        assert summary["details"]["unrenormalized_oscillation"] > 1.0

    def test_counterexample_deviations_at_the_rounding_floor_pass(self):
        # at 25 terms 1 - |a_24| is about 1e-11 and the deviations (2e-5 to
        # 6e-5) pass 1e-6 but stay below 16 eps/(1 - |a_24|): rounding, not a split
        rc, out = run(["verify", "--suite", "counterexample", "--trials", "25"])
        assert rc == EXIT_OK
        summary = json.loads(out)
        assert summary["pass"] is True
        assert summary["details"]["even_limit_deviation"] > 1e-6

    def test_counterexample_stops_at_its_last_term(self, capsys):
        # 1 - a_31^2 B(T(z)) stays above moebius.POLE_TOL on the grid, term 32's
        # does not: 32 terms are refused before any is evaluated
        rc, out = run(["verify", "--suite", "counterexample", "--trials", "31"])
        assert rc == EXIT_OK and json.loads(out)["pass"] is True
        capsys.readouterr()
        rc, out = run(["verify", "--suite", "counterexample", "--trials", "32"])
        assert rc == EXIT_USAGE and out == ""
        assert "at most 31" in capsys.readouterr().err

    def test_unknown_suite_usage_error(self):
        rc, _ = run(["verify", "--suite", "everything"])
        assert rc == EXIT_USAGE

    def test_one_parser_serves_a_usage_error_and_then_a_good_call(self, capsys):
        # the parser is built once per process; a failed parse leaves
        # nothing behind for the next call to see
        import blaschkelab.cli as cli

        rc, out = run(["verify", "--suite", "hull", "--trials", "0"])
        assert rc == EXIT_USAGE and out == ""
        assert "must be at least 1" in capsys.readouterr().err
        rc, out = run(["verify", "--suite", "hull", "--trials", "3", "--seed", "5"])
        summary = json.loads(out)
        assert rc == EXIT_OK and summary["pass"] is True and (summary["seed"], summary["trials"]) == (5, 3)
        rc, out = run(["verify", "--suite", "hull", "--trials", "3"])
        assert rc == EXIT_OK and json.loads(out)["seed"] == 7
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("suite", ["hull", "converge", "separation"])
    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_trials_below_one_usage_error(self, suite, trials):
        rc, out = run(["verify", "--suite", suite, "--trials", trials])
        assert rc == EXIT_USAGE
        assert out == ""

    def test_hull_solves_each_seed_in_one_batch(self, monkeypatch):
        # one critical_sets call per seed, and in it one Aberth run for the
        # products of all orders (2-8)
        import blaschkelab.blaschke as blaschke
        import blaschkelab.cli as cli

        calls, runs = [], []
        real, solve = cli.critical_sets, blaschke.critical_roots

        def counted(products):
            calls.append(len(products))
            return real(products)

        def counted_runs(distinct, names):
            runs.append(len(distinct))
            return solve(distinct, names)

        monkeypatch.setattr(cli, "critical_sets", counted)
        monkeypatch.setattr(blaschke, "critical_roots", counted_runs)
        for seed in ("7", "1"):
            rc, _ = run(["verify", "--suite", "hull", "--seed", seed])
            assert rc == EXIT_OK
        assert calls == [200, 200] and runs == [200, 200]

    @pytest.mark.parametrize("suite,products", [("separation", 21), ("valence", 20)])
    def test_fibers_of_each_seed_in_one_batch(self, monkeypatch, suite, products):
        # one call per seed with every product of the suite: z^2 and the 20
        # drawn ones for separation, the 20 drawn ones for valence
        import blaschkelab.cli as cli

        calls = []
        real = cli.fiber_sets

        def counted(items, targets):
            calls.append(len(items))
            return real(items, targets)

        monkeypatch.setattr(cli, "fiber_sets", counted)
        for seed in ("7", "1"):
            rc, out = run(["verify", "--suite", suite, "--seed", seed])
            assert rc == EXIT_OK and json.loads(out)["pass"] is True
        assert calls == [products, products]

    def test_failure_path_serializes_instance(self, monkeypatch):
        # an impossible threshold forces the failure branch: exit 1 plus a
        # replayable serialized instance in the summary
        import blaschkelab.cli as cli

        monkeypatch.setattr(cli, "CONVERGE_FINAL", 1e-30)
        rc, out = run(["verify", "--suite", "converge", "--trials", "1", "--seed", "7"])
        assert rc == 1
        summary = json.loads(out)
        assert summary["pass"] is False
        assert summary["failure"]["reason"] == "convergence"
        assert "zeros" in summary["failure"]

    @pytest.mark.parametrize("seed", [1009, 1014])
    def test_converge_tail_at_rounding_floor_passes(self, seed):
        # the last deviations level off near eps/(1 - |a_k|) on these seeds
        rc, out = run(["verify", "--suite", "converge", "--seed", str(seed)])
        assert rc == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_converge_plateau_above_floor_fails(self, monkeypatch):
        # deviations that stop shrinking at 1e-8, far below converge_final but
        # above the rounding floor of the earlier terms, are not convergence
        import blaschkelab.cli as cli

        real = cli.convergence_experiment

        def stalled(*args, **kwargs):
            return [
                dataclasses.replace(r, sup_deviation=max(r.sup_deviation, 1e-8))
                for r in real(*args, **kwargs)
            ]

        monkeypatch.setattr(cli, "convergence_experiment", stalled)
        rc, out = run(["verify", "--suite", "converge", "--trials", "1", "--seed", "7"])
        assert rc == 1
        assert json.loads(out)["failure"]["reason"] == "convergence"

    def test_converge_rotation_check_is_live(self, monkeypatch):
        # a rotation constant turned by 1e-9 still passes the convergence checks (its
        # drift stays under the rounding floor) but misses the boundary identity
        # B(gamma0) conj(gamma0)/|B(gamma0)|
        import blaschkelab.lab as lab

        real = lab.rotation_constant
        monkeypatch.setattr(lab, "rotation_constant", lambda B, g0: real(B, g0) * np.exp(1e-9j))
        rc, out = run(["verify", "--suite", "converge", "--trials", "1", "--seed", "7"])
        assert rc == 1
        assert json.loads(out)["failure"]["reason"] == "rotation constant"

    @staticmethod
    def fatou_draw(seed):
        """The first product of the fatou suite at seed and its 20 points, drawn one by one."""
        rng = np.random.default_rng(np.random.PCG64(seed))
        B = random_product(rng, int(rng.integers(1, 11)), 0.9)
        return B, np.array([0.97 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                            for _ in range(20)])

    @pytest.mark.parametrize("seed", [7, 1])
    def test_fatou_reports_the_first_failing_point_drawn(self, monkeypatch, seed):
        import blaschkelab.cli as cli

        B, zs = self.fatou_draw(seed)
        q = fatou_quotient(B, zs)
        # every point fails: the first drawn is reported
        monkeypatch.setattr(cli, "FATOU_SLACK", -1.0)
        ok, _, failure = cli._suite_fatou(1, np.random.default_rng(np.random.PCG64(seed)))
        assert not ok and failure["reason"] == "Schwarz-Pick"
        assert failure["z"] == [zs[0].real, zs[0].imag] and failure["q"] == q[0]
        # the two largest quotients fail: the one drawn first is reported
        third = np.sort(q)[-3]
        monkeypatch.setattr(cli, "FATOU_SLACK", third - 1.0)
        ok, _, failure = cli._suite_fatou(1, np.random.default_rng(np.random.PCG64(seed)))
        i = int(np.flatnonzero(q > third)[0])
        assert not ok and failure["z"] == [zs[i].real, zs[i].imag] and failure["q"] == q[i]

    @pytest.mark.parametrize("breaks,expected", [
        # {product: what is broken}: the first failing product in draw order is reported
        ({57: "outside", 120: "unpaired"}, (57, "hull containment")),
        ({31: "unpaired", 140: "outside"}, (31, "reflection pairing")),
        ({12: "short", 90: "outside"}, (12, "interior count")),
        ({88: "outside unpaired", 150: "short"}, (88, "hull containment")),
        ({120: "unpaired", 150: "short"}, (120, "reflection pairing")),
        ({150: "short", 190: "unpaired"}, (150, "interior count")),
    ])
    def test_hull_failure_matches_the_check_of_one_product_at_a_time(self, monkeypatch, breaks, expected):
        import blaschkelab.cli as cli
        from blaschkelab.hyperbolic import klein_to_poincare

        drawn = {}
        real = cli.critical_sets

        def broken(products):
            sets = real(products)
            for k, what in breaks.items():
                B, cs = products[k], sets[k]
                interior, exterior = list(cs.interior), list(cs.exterior)
                if "outside" in what:
                    # the last interior point 2 HULL_TOL (Klein distance) right of the
                    # hull's first ccw edge, or off its segment; of three or more, the
                    # first takes the multiplicity of the second, so the count holds
                    kv = cli.hyperbolic_convex_hull(B.zeros).klein_vertices
                    a, b = kv[0], kv[1]
                    out = klein_to_poincare(0.5 * (a + b) + 2.0 * cli.HULL_TOL * (b - a) * -1j / abs(b - a))
                    assert not cli.hull_contains(cli.hyperbolic_convex_hull(B.zeros), out, cli.HULL_TOL)
                    if len(interior) >= 3:
                        interior = [(interior[0][0], 1 + interior[1][1])] + interior[2:]
                    interior[-1] = (out, interior[-1][1])
                if "unpaired" in what:
                    exterior[-1] = (exterior[-1][0] * (1.0 + 1e-6), exterior[-1][1])
                if what == "short":
                    interior = interior[1:]
                sets[k] = dataclasses.replace(cs, interior=tuple(interior), exterior=tuple(exterior))
            drawn.update(products=products, sets=sets)
            return sets

        monkeypatch.setattr(cli, "critical_sets", broken)
        rc, out = run(["verify", "--suite", "hull", "--seed", "7"])
        summary = json.loads(out)
        assert rc == 1 and summary["pass"] is False
        products, sets = drawn["products"], drawn["sets"]
        details, failure = one_product_at_a_time(products, sets)
        assert (summary["details"], summary["failure"]) == (details, failure)
        k, reason = expected
        assert failure["reason"] == reason
        assert failure["zeros"] == [[z.real, z.imag] for z in products[k].zeros]
        before = sum(products[i].order - 1 for i in range(k))
        ms = [m for _, m in sets[k].interior]
        assert details["checked"] == before + {"hull containment": sum(ms), "reflection pairing": sum(ms),
                                               "interior count": 0}[reason]

    def test_seed_changes_nothing_about_passing(self):
        rc1, out1 = run(["verify", "--suite", "hull", "--trials", "5", "--seed", "1"])
        rc2, out2 = run(["verify", "--suite", "hull", "--trials", "5", "--seed", "2"])
        assert rc1 == rc2 == EXIT_OK
        assert json.loads(out1)["pass"] and json.loads(out2)["pass"]
        rc3, out3 = run(["verify", "--suite", "hull", "--trials", "5", "--seed", "1"])
        assert out3 == out1


def one_product_at_a_time(products, sets):
    """The hull suite's (details, failure) by the checks of one product at a
    time: the one-set hull and membership, and the reflections, in order."""
    from blaschkelab.cli import HULL_TOL, REFLECTION_TOL
    from blaschkelab.hyperbolic import hull_contains, hyperbolic_convex_hull

    def product(B):
        return {"gamma": [B.gamma.real, B.gamma.imag], "zeros": [[z.real, z.imag] for z in B.zeros]}

    checked = 0
    for B, cs in zip(products, sets):
        hull = hyperbolic_convex_hull(B.zeros)
        if sum(m for _, m in cs.interior) != B.order - 1:
            return {"checked": checked}, {"reason": "interior count", **product(B)}
        for p, m in cs.interior:
            checked += m
            if not hull_contains(hull, p, HULL_TOL):
                return {"checked": checked}, {"reason": "hull containment", "critical_point": [p.real, p.imag],
                                              **product(B)}
        for e, _ in cs.exterior:
            if min(abs(1.0 / np.conj(e) - p) for p, _ in cs.interior) > REFLECTION_TOL:
                return {"checked": checked}, {"reason": "reflection pairing", "exterior_point": [e.real, e.imag],
                                              **product(B)}
    return {"interior_points_checked": checked}, None


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "blaschkelab.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0  # no subcommand given is a usage error


def test_verify_stdout_is_identical_across_processes():
    # stdout may depend only on the flags and the seed; the second interpreter
    # takes fresh pages for every block from 64 KiB up, so its memory layout
    # differs from the first's, and it sees a variable that once overrode a
    # pass threshold
    import os
    import subprocess
    import sys
    from pathlib import Path

    import blaschkelab

    code = (
        "from blaschkelab.cli import SUITES, main\n"
        "for seed in ('7', '1'):\n"
        "    for suite in sorted(SUITES):\n"
        "        assert main(['verify', '--suite', suite, '--seed', seed]) == 0\n"
    )
    src = str(Path(blaschkelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [subprocess.run([sys.executable, "-c", code], env=dict(env, **extra), capture_output=True, text=True,
                           check=True).stdout
            for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "65536",
                               "BLASCHKE_LAB_TOL_OVERRIDES": "converge_final=1e-30"})]
    assert len(outs[0].splitlines()) == 12
    assert outs[0] == outs[1]
