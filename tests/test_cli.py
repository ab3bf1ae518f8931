"""Configuration ingestion, the four subcommands, CSV schema, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairbath.pauli_algebra
import pairbath.selfcheck
from pairbath import cli
from pairbath.bath import make_bath
from pairbath.config import (ConfigError, build_block, build_initial,
                             load_config, parse_config, run_seed, serialize,
                             werner_state)
from pairbath.entanglement import concurrence, concurrence_closed
from pairbath.generator import _generator_tensor, evolve, final_map
from pairbath.pauli_algebra import TAU_ENTRIES, convert, tau_of
from pairbath.steady_state import stationary_family

from conftest import EYE2, PAULI, non_cp_block, oracle_propagate


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.5]},
        "initial": {"werner_eq27": {"s": 0.25}}}


# ----------------------------------------------------------------- parsing

def test_round_trip_idempotent():
    cfg = parse_config(BASE)
    out = serialize(cfg)
    again = serialize(parse_config(out))
    assert out == again
    assert "werner" in out["initial"]


def test_round_trip_product_and_pauli():
    obj = {"bath": {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "B": [0, 0, 0.2]},
           "initial": {"product": {"phi": [1, 0],
                                   "psi": [[0.6, 0], [0, 0.8]]}},
           "integrator": {"dt": 0.5, "t_end": 2.0, "sample_every": 3}}
    out = serialize(parse_config(obj))
    assert serialize(parse_config(out)) == out
    obj["initial"] = {"pauli": {"r0i": [0, 0, 0], "ri0": [0, 0, 0],
                                "rij": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}
    out = serialize(parse_config(obj))
    assert serialize(parse_config(out)) == out


def test_round_trip_mixed():
    obj = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.3]},
           "initial": {"mixed": [
               {"weight": 0.5, "werner": {"s": 0.3}},
               {"weight": 0.5, "product": {"phi": [1, 0], "psi": [0, 1]}}]}}
    out = serialize(parse_config(obj))
    assert serialize(parse_config(out)) == out
    mixed = build_initial(parse_config(obj))
    w = build_initial(parse_config({**obj, "initial": {"werner": {"s": 0.3}}}))
    p = build_initial(parse_config(
        {**obj, "initial": {"product": {"phi": [1, 0], "psi": [0, 1]}}}))
    assert np.abs(mixed - 0.5 * (w + p)).max() < 1e-15


@pytest.mark.parametrize("mangle, field", [
    (lambda o: o.pop("bath"), "bath"),
    (lambda o: o["bath"].pop("B"), "bath.B"),
    (lambda o: o["bath"].update(A=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "exactly one of"),
    (lambda o: o["bath"].pop("lambda"), "exactly one of"),
    (lambda o: o["bath"].update(B=[0, 0]), "bath.B"),
    (lambda o: o["initial"]["werner_eq27"].update(s=0.9), ".s"),
    (lambda o: o["initial"].update(extra={}), "exactly one state variant"),
    (lambda o: o.update(integrator={"dt": -1}), "integrator.dt"),
    (lambda o: o.update(integrator={"sample_every": 0}), "sample_every"),
    (lambda o: o.update(unknown=1), "unknown"),
    # booleans and numeric strings are not numbers
    (lambda o: o.update(integrator={"sample_every": True}), r"integrator\.sample_every"),
    (lambda o: o.update(integrator={"dt": True}), r"integrator\.dt"),
    (lambda o: o.update(integrator={"t_end": True}), r"integrator\.t_end"),
    (lambda o: o["bath"].update({"lambda": [True, "1", 1]}), r"bath\.lambda"),
    (lambda o: o["bath"].update({"lambda": [1, "1", 1]}), r"bath\.lambda"),
    (lambda o: o["bath"].update(B=[0, 0, True]), r"bath\.B"),
    (lambda o: o.update(bath={"A": [[1, 0, 0], [0, True, 0], [0, 0, 1]], "B": [0, 0, 0]}),
     r"bath\.A"),
    (lambda o: o["initial"]["werner_eq27"].update(s=False), r"werner_eq27\.s"),
    (lambda o: o.update(initial={"mixed": [{"weight": True, "werner": {"s": 0.1}}]}),
     r"mixed\[0\]\.weight"),
    (lambda o: o.update(initial={"product": {"phi": [True, 0], "psi": [1, 0]}}),
     r"product\.phi"),
    (lambda o: o.update(initial={"product": {"phi": [1, 0], "psi": [[0, True], 0]}}),
     r"product\.psi"),
    (lambda o: o.update(initial={"pauli": {"r0i": [0, 0, "0"], "ri0": [0, 0, 0],
                                           "rij": [[0] * 3] * 3}}), r"pauli\.r0i"),
    (lambda o: o.update(initial={"pauli": {"r0i": [0, 0, 0], "ri0": [0, 0, 0],
                                           "rij": [[0, 0, 0], [0, False, 0], [0, 0, 0]]}}),
     r"pauli\.rij"),
    # NaN and Infinity (which Python's JSON reader accepts) are not numbers either
    (lambda o: o.update(integrator={"dt": float("nan")}), r"integrator\.dt: need a finite"),
    (lambda o: o.update(integrator={"t_end": float("inf")}),
     r"integrator\.t_end: need a finite"),
    (lambda o: o["bath"].update({"lambda": [1, float("nan"), 1]}),
     r"bath\.lambda: expected finite"),
    (lambda o: o.update(initial={"pauli": {"r0i": [0, 0, 0], "ri0": [0, float("nan"), 0],
                                           "rij": [[0] * 3] * 3}}), r"pauli\.ri0"),
    (lambda o: o.update(initial={"product": {"phi": [float("inf"), 0], "psi": [1, 0]}}),
     r"product\.phi\[0\]"),
    (lambda o: o.update(initial={"mixed": [{"weight": float("nan"), "werner": {"s": 0.1}}]}),
     r"mixed\[0\]\.weight: need a finite"),
])
def test_validation_names_the_field(mangle, field):
    obj = json.loads(json.dumps(BASE))
    mangle(obj)
    with pytest.raises(ConfigError, match=field):
        parse_config(obj)


def test_unnormalized_product_rejected():
    obj = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.2]},
           "initial": {"product": {"phi": [1, 1], "psi": [1, 0]}}}
    with pytest.raises(ConfigError, match="normalized"):
        parse_config(obj)


def test_mixed_weights_must_sum_to_one():
    obj = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.2]},
           "initial": {"mixed": [{"weight": 0.7, "werner": {"s": 0.1}},
                                 {"weight": 0.7, "werner": {"s": 0.2}}]}}
    with pytest.raises(ConfigError, match="sum"):
        parse_config(obj)


def test_mixed_divides_by_total_weight(tmp_path, capsys):
    # weights within 1e-9 of 1 pass; the mixture is scaled back to unit trace
    obj = {"bath": {"lambda": [1, 0.5, 0.2], "B": [0, 0, 0.3]},
           "initial": {"mixed": [{"weight": 1.0000000009, "werner": {"s": 0}}]}}
    assert tau_of(build_initial(parse_config(obj))) == -3.0
    assert cli.main(["steady", "--config", write_config(tmp_path, obj)]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == -3.0


NOT_A_STATE = {"pauli": {"r0i": [0, 0, 0.9], "ri0": [0, 0, 0.9],
                         "rij": [[0] * 3] * 3}}


@pytest.mark.parametrize("initial, message", [
    # eigenvalue -1/4, tau = -6
    ({"pauli": {"r0i": [0, 0, 0], "ri0": [0, 0, 0], "rij": (-2 * np.eye(3)).tolist()}},
     r"initial\.pauli: not a state: negative eigenvalue -2\.500e-01"),
    # tau = 0 but eigenvalue -0.2
    (NOT_A_STATE, r"initial\.pauli: not a state: negative eigenvalue -2\.000e-01"),
    # eigenvalue -2.5e-10 is within the state floor; tau = -3 - 3e-9 is not
    ({"pauli": {"r0i": [0, 0, 0], "ri0": [0, 0, 0],
                "rij": (-(1 + 1e-9) * np.eye(3)).tolist()}},
     r"initial\.pauli\.rij: correlation trace -3\.000000003\d* outside \[-3, 1\]"),
    ({"mixed": [{"weight": 0.5, "werner": {"s": 0}}, {"weight": 0.5, **NOT_A_STATE}]},
     r"initial\.mixed\[1\]\.pauli: not a state"),
], ids=["rij=-2I", "eigenvalue-0.2", "tau-below-3", "mixed-part"])
def test_pauli_initial_must_be_a_state(tmp_path, capsys, initial, message):
    cfg = write_config(tmp_path, {"bath": {"lambda": [1, 0.5, 0.2], "B": [0, 0, 0.3]},
                                  "initial": initial})
    for argv in (["steady"], ["evolve", "--out", str(tmp_path / "e.csv")],
                 ["sweep", "--param", "B", "--values", "0.1",
                  "--out", str(tmp_path / "s.csv")]):
        assert cli.main([argv[0], "--config", cfg, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert re.search("config error: " + message, captured.err)
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_nested_mixed_rejected():
    obj = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.2]},
           "initial": {"mixed": [
               {"weight": 1.0, "mixed": [{"weight": 1.0, "werner": {"s": 0.1}}]}]}}
    with pytest.raises(ConfigError, match="nest"):
        parse_config(obj)


def test_werner_initial_coefficients():
    c = werner_state(0.25)
    assert c.shape == (15,)
    assert np.allclose(c[6:].reshape(3, 3), np.diag([-2 / 3, -2 / 3, -2 / 3]))
    assert np.isclose(tau_of(c), -2.0)
    assert np.abs(c[:6]).max() == 0.0


def test_run_seed_environment(monkeypatch):
    monkeypatch.delenv("PAIRBATH_SEED", raising=False)
    monkeypatch.delenv("TOOL_SEED", raising=False)
    assert run_seed() == 0
    monkeypatch.setenv("TOOL_SEED", "7")
    assert run_seed() == 7
    monkeypatch.setenv("PAIRBATH_SEED", "9")
    assert run_seed() == 9
    monkeypatch.setenv("PAIRBATH_SEED", "x")
    with pytest.raises(ConfigError):
        run_seed()


# ------------------------------------------------------------------ evolve

def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    rows = [[float(x) if x else np.nan for x in ln.split(",")]
            for ln in lines[2:]]
    return header, rows


def test_evolve_csv_schema(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "traj.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ("t,tau,trace_err,min_pt_eig,concurrence,"
                      "r01,r02,r03,r10,r11,r12,r13,"
                      "r20,r21,r22,r23,r30,r31,r32,r33").split(",")
    assert all(len(r) == 20 for r in rows)
    # maximally entangled fraction 1 - 2s at the start
    assert np.isclose(rows[0][4], 0.5)
    assert np.isclose(rows[0][1], -2.0)
    # correlation trace conserved over the run, 15 digits in the file
    taus = [r[1] for r in rows]
    assert max(abs(t - taus[0]) for t in taus) < 1e-9


def test_evolve_csv_full_precision(tmp_path):
    cfg = write_config(tmp_path, {**BASE, "integrator":
                                  {"t_end": 0.3, "dt": 0.01, "sample_every": 10}})
    out = tmp_path / "t.csv"
    cli.main(["evolve", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    from pairbath.config import build_block
    from pairbath.generator import evolve
    cfgp = load_config(cfg)
    tr = evolve(build_initial(cfgp), build_block(cfgp),
                t_end=0.3, dt=0.01, sample_every=10)
    # %.15g round-trips doubles closely enough to compare at 1e-15
    for k, row in enumerate(rows):
        assert abs(row[4] - tr.concurrence[k]) < 1e-14


def test_evolve_zero_block_rows_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [0, 0, 0], "B": [0, 0, 0]},
        "initial": {"werner": {"s": 0.1}},
        "integrator": {"t_end": 1.0, "dt": 0.1, "sample_every": 1}})
    out = tmp_path / "z.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    first = rows[0][1:]
    for row in rows[1:]:
        assert row[1:] == first


def test_evolve_antiparallel_entangles_quickly(tmp_path):
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.5]},
        "initial": {"product": {"phi": [1, 0], "psi": [0, 1]}},
        "integrator": {"t_end": 0.05, "dt": 0.001, "sample_every": 5}})
    out = tmp_path / "gen.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0][4] < 1e-7
    assert any(r[4] > 1e-3 for r in rows[1:5])


def test_evolve_aligned_ground_pair_stays_separable(tmp_path):
    # spins parallel to the bath vector never entangle under this dynamics
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.5]},
        "initial": {"product": {"phi": [1, 0], "psi": [1, 0]}},
        "integrator": {"t_end": 5.0, "dt": 0.01, "sample_every": 50}})
    out = tmp_path / "sep.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(r[4] < 1e-6 for r in rows)
    assert all(r[3] > -1e-8 for r in rows)


def test_evolve_bad_config_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bath": {"lambda": [1, 1, 1]},
                                  "initial": {"werner": {"s": 0.1}}})
    code = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "bath.B" in capsys.readouterr().err


def test_evolve_nonpsd_bath_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 2]},
                                  "initial": {"werner": {"s": 0.1}}})
    assert cli.main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "eigenvalue" in capsys.readouterr().err


def _no_evolve(*args, **kwargs):
    raise AssertionError("integrated although --out cannot be written")


def test_evolve_unwritable_out_exit_1(tmp_path, capsys, monkeypatch):
    # refused before any integration, and nothing is created
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "no" / "such" / "x.csv"
    monkeypatch.setattr(cli, "evolve", _no_evolve)
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_evolve_out_is_directory_exit_1(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE)
    monkeypatch.setattr(cli, "evolve", _no_evolve)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and "Is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


EXIT_2_CAUSE = (r"the generator is not completely positive, or dt\*\|\|G\|\|_1 is too "
                r"large for the step to stay exact\n")


def test_evolve_integration_failure_exit_2(tmp_path, capsys, monkeypatch):
    # make_bath admits only completely positive generators, so a valid
    # config fails positivity only through the rounding of a huge step (see
    # below); run the real propagation on a block that is not completely
    # positive, and nothing is written
    bad = non_cp_block(np.eye(3), [0.0, 0.0, 1.02])
    monkeypatch.setattr(cli, "evolve",
                        lambda initial, block, **kwargs: evolve(initial, bad, **kwargs))
    zero = [0.0, 0.0, 0.0]
    cfg = write_config(tmp_path, {
        **BASE, "initial": {"pauli": {"r0i": zero, "ri0": zero, "rij": [zero] * 3}},
        "integrator": {"t_end": 2.0, "dt": 0.01}})
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"integration failure: state eigenvalue -\S+ at t=0\.7; "
                        + EXIT_2_CAUSE, err), err
    assert not out.exists()


@pytest.mark.parametrize("t_end,sample_every", [(45.0, 10), (900.0, 10 ** 6)])
def test_evolve_large_dt_is_exact(tmp_path, t_end, sample_every):
    # dt * rate = 4.5: far past the stability bound of an explicit
    # integrator, while the exact step has none.  Both horizons end at the
    # equilibrium of |01>, half singlet and half the uniform triplet
    # mixture, which the expm oracle confirms at t = 45 (at t = 900 its
    # own rounding reaches 2.5e-12)
    A, B = 5.0 * np.eye(3), np.zeros(3)
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [5, 5, 5], "B": [0, 0, 0]},
        "initial": {"product": {"phi": [1, 0], "psi": [0, 1]}},
        "integrator": {"t_end": t_end, "dt": 0.9, "sample_every": sample_every}})
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows[-1][0] == t_end
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    p_singlet = np.outer(singlet, singlet)
    rho_eq = (p_singlet + (np.eye(4) - p_singlet) / 3) / 2
    rho0 = np.diag([0.0, 1.0, 0.0, 0.0])
    assert np.abs(oracle_propagate(rho0, A, B, 45.0) - rho_eq).max() <= 1e-12
    paulis = [EYE2] + PAULI
    expected = [np.trace(rho_eq @ np.kron(paulis[int(c[1])], paulis[int(c[2])])).real
                for c in header[5:]]
    assert np.abs(np.array(rows[-1][5:]) - expected).max() <= 1e-12


def test_evolve_csv_text_is_the_template_text(tmp_path, monkeypatch):
    # 600 steps sampled every step: 601 rows, written in three chunks
    cfg = write_config(tmp_path, {**BASE, "integrator":
                                  {"t_end": 6.0, "dt": 0.01, "sample_every": 1}})
    cfgp = load_config(cfg)
    tr = evolve(build_initial(cfgp), build_block(cfgp),
                t_end=6.0, dt=0.01, sample_every=1)
    table = np.column_stack([tr.times, tr.tau, tr.trace_err, tr.min_pt_eig,
                             tr.concurrence, tr.coeffs[:, cli._COEFF_ORDER]])
    assert len(table) == 601
    expected = (cli.COEFF_COMMENT + "\n" + cli.TRAJECTORY_HEADER + "\n"
                + (cli._TRAJECTORY_ROW * len(table)).format(*table.ravel().tolist()))

    kernel, results = cli.format_rows, []

    def spy(rows):
        results.append(kernel(rows))
        return results[-1]

    monkeypatch.setattr(cli, "format_rows", spy)
    out = tmp_path / "fast.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert len(results) == 3 and all(text is not None for text in results)
    assert out.read_bytes() == expected.encode("ascii")

    # the second chunk refused: formatted by the template instead
    def refuse_second(rows):
        results.append(None if len(results) == 4 else kernel(rows))
        return results[-1]

    monkeypatch.setattr(cli, "format_rows", refuse_second)
    out = tmp_path / "reference.csv"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert len(results) == 6 and results[4] is None
    assert out.read_bytes() == expected.encode("ascii")


# ------------------------------------------------------------------ steady

def test_steady_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert cli.main(["steady", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["closed_form_applicable"]
    assert np.isclose(report["M"], 0.5)
    assert np.isclose(report["Delta"], 0.75)
    assert np.isclose(report["threshold"], -7 / 11)
    assert np.isclose(report["tau"], -2.0)
    assert report["nullspace"]["dimension"] == 1
    assert report["nullspace"]["agreement_residual"] < 1e-9
    # tau = -2 sits below the threshold: entangled equilibrium
    assert report["concurrence_closed"] > 0


def test_steady_boundary_bath_without_full_rank_member(tmp_path, capsys):
    # every stationary state of this saturated bath is rank deficient; the
    # numerical limit of the start state still matches the closed form
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1.0, 1.0, 0.7], "B": [0, 0, 1.0]},
        "initial": {"werner": {"s": 0.25}}})
    with pytest.warns(UserWarning, match="saturates"):
        assert cli.main(["steady", "--config", cfg]) == 0
    nullspace = json.loads(capsys.readouterr().out)["nullspace"]
    assert nullspace["full_rank_found"] is False
    assert nullspace["agreement_residual"] <= 1e-9


def test_steady_zero_vector(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1.0, 0.7, 0.4], "B": [0, 0, 0]},
        "initial": {"werner": {"s": 0.25}}})
    assert cli.main(["steady", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == report["N"] == report["R"] == 0.0
    assert np.isclose(report["threshold"], -1.0)


# |B| = sqrt(lam1 lam2) in physical units, and the same bath scaled by 1e-6
BOUNDARY_RATES = {"lambda": [2e6, 7e5, 1e5], "B": [0, 0, 1183215.9566199232]}
BOUNDARY_TWIN = {"lambda": [2, 0.7, 0.1], "B": [0, 0, 1.4 ** 0.5]}


@pytest.mark.filterwarnings("error")
def test_boundary_bath_in_physical_units(tmp_path, capsys):
    # herm's smallest eigenvalue, -5.8e-11, is rounding at rates of 2e6
    cfgs = [write_config(tmp_path, {"bath": bath, "initial": {"werner": {"s": 0.2}}},
                         name=f"{i}.json")
            for i, bath in enumerate((BOUNDARY_RATES, BOUNDARY_TWIN))]
    reports = []
    for cfg in cfgs:
        assert cli.main(["steady", "--config", cfg]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    rates, twin = reports
    assert rates["boundary"] is True
    assert rates["nullspace"]["agreement_residual"] <= 1e-12
    assert max(abs(rates[k] - twin[k]) for k in "MNR") <= 1e-15
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", cfgs[0], "--out", str(out)]) == 0
    assert cli.main(["sweep", "--config", cfgs[0], "--param", "s",
                     "--values", "0,0.1,0.25", "--out", str(out)]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [[], ["--numeric-only"]])
def test_steady_clips_b_on_rates_near_the_floor(tmp_path, capsys, flags):
    # herm has eigenvalues -1e-12, 4e-12 and 1: rank 2, with lam2 = 0, so
    # b^2 = 4e-24 > lam1 lam2 by rounding.  b is clipped to 0; unclipped,
    # steady exited 1 on 2R = 1.78
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [3e-12, 0, 1], "B": [0, 0, 2e-12]},
        "initial": {"werner": {"s": 0.2}}})
    assert cli.main(["steady", "--config", cfg, *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [report[k] for k in "MNR"] == [0.0, 0.0, 0.0]


def test_steady_off_axis_exit_3(tmp_path, capsys):
    obj = {"bath": {"A": [[1.0, 0.3, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 1.5]],
                    "B": [0.4, 0.1, 0.2]},
           "initial": {"werner": {"s": 0.25}}}
    cfg = write_config(tmp_path, obj)
    assert cli.main(["steady", "--config", cfg]) == 3
    assert "numeric-only" in capsys.readouterr().err
    assert cli.main(["steady", "--config", cfg, "--numeric-only"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["closed_form_applicable"]
    assert report["nullspace"]["dimension"] == 1
    assert 0.0 <= report["concurrence_numeric"] <= 1.0


PHI_MINUS = {"pauli": {"r0i": [0, 0, 0], "ri0": [0, 0, 0],
                       "rij": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
# baths whose herm has rank 1: more is conserved than tau; with the null
# space's dimension and the concurrence Phi- tends to
RANK_ONE_BATHS = {"lambda=(1,0,0)": ({"lambda": [1, 0, 0], "B": [0, 0, 0]}, 5, 1.0),
                  "lambda=(1,0.5,0)": ({"lambda": [1, 0.5, 0],
                                        "B": [0, 0, 0.5 ** 0.5]}, 3, 1 / 3)}


@pytest.mark.parametrize("name", RANK_ONE_BATHS)
def test_rank_one_bath_exit_3(tmp_path, capsys, name):
    bath, dimension, c_limit = RANK_ONE_BATHS[name]
    cfg = write_config(tmp_path, {"bath": bath, "initial": PHI_MINUS})
    out = tmp_path / "x.csv"
    assert cli.main(["steady", "--config", cfg]) == 3
    assert "rank <= 1" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", cfg, "--param", "tau",
                     "--values", "-3,0", "--out", str(out)]) == 3
    assert "rank <= 1" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["steady", "--config", cfg, "--numeric-only"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["closed_form_applicable"]
    assert report["nullspace"]["dimension"] == dimension
    assert abs(report["concurrence_numeric"] - c_limit) <= 1e-12


def test_rank_one_bath_keeps_decoherence_free_state(tmp_path):
    # collective sigma_x leaves the Bell state Phi- alone: its concurrence
    # stays 1, where the tau-only closed form would give 0
    bath, _, _ = RANK_ONE_BATHS["lambda=(1,0,0)"]
    cfg = load_config(write_config(tmp_path, {"bath": bath, "initial": PHI_MINUS,
                                              "integrator": {"t_end": 50.0}}))
    tr = evolve(build_initial(cfg), build_block(cfg), t_end=50.0,
                dt=cfg.integrator["dt"], sample_every=cfg.integrator["sample_every"])
    assert abs(tr.concurrence[-1] - 1.0) < 1e-9


# ------------------------------------------------------------------- sweep

def test_sweep_s_enhancement_column(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", "0,0.1,0.25", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# sweep parameter: s"
    assert lines[1] == "value,c_closed,c_evolved,delta_c"
    rows = [ln.split(",") for ln in lines[2:]]
    values = [float(r[0]) for r in rows]
    assert values == [0.0, 0.1, 0.25]
    delta = [float(r[3]) for r in rows]
    assert np.allclose(delta, [0.0, 0.2 * (1 - 2.75 / 3.25),
                               0.5 * (1 - 2.75 / 3.25)], atol=1e-12)
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) < 1e-5


def test_sweep_tau_with_zero_vector_separable(tmp_path):
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1.0, 0.8, 0.6], "B": [0, 0, 0]},
        "initial": {"werner": {"s": 0.25}}})
    out = tmp_path / "tau.csv"
    assert cli.main(["sweep", "--config", cfg, "--param", "tau",
                     "--values", "-1,-0.5,0,0.5,1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    for ln in lines[2:]:
        parts = ln.split(",")
        assert float(parts[1]) == 0.0
        assert float(parts[2]) < 1e-8
        assert parts[3] == ""


def test_sweep_tau_out_of_range_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--param", "tau",
                     "--values", "0,1.5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "outside" in capsys.readouterr().err


def test_sweep_B_beyond_positivity_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--param", "B",
                     "--values", "0.5,2.0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "eigenvalue" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", [
    ("B", "nan"), ("B", "inf"), ("B", "1e400"),
    ("lambda_2", "inf"), ("lambda_1", "nan")])
def test_sweep_non_finite_value_exit_1(tmp_path, capsys, param, values):
    cfg = write_config(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--param", param,
                     "--values", values, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("values", [",", "", " , "])
def test_sweep_empty_value_list_exit_1(tmp_path, capsys, values):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "x.csv"
    code = cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", values, "--out", str(out)])
    assert code == 1
    assert "values" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_unwritable_out_exit_1(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "no" / "such" / "x.csv"
    monkeypatch.setattr(cli, "final_map", _no_evolve)
    assert cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", "0,0.25", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_out_is_directory_exit_1(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE)
    monkeypatch.setattr(cli, "final_map", _no_evolve)
    assert cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", "0,0.25", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and "Is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _assert_final_concurrence(c_evolved, initial, block, integrator):
    # the row's end state comes from one end-time map, not from the steps of
    # a trajectory: within 1e-12 of the last sample of a 100-step-sampled
    # evolve, and of the oracle at that sample's time
    tr = evolve(initial, block, t_end=integrator["t_end"], dt=integrator["dt"],
                sample_every=100)
    assert final_map(block, t_end=integrator["t_end"], dt=integrator["dt"])[1] \
        == tr.times[-1]
    assert abs(c_evolved - tr.concurrence[-1]) <= 1e-12
    rho = oracle_propagate(convert(initial), block.A, block.B, tr.times[-1])
    assert abs(c_evolved - concurrence(rho)) <= 1e-12


def test_sweep_c_evolved_is_final_trajectory_concurrence(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE))
    rows = list(cli.sweep_rows(cfg, "s", [0.0, 0.25, 0.6]))
    for value, _, c_evolved, _ in rows:
        _assert_final_concurrence(c_evolved, werner_state(value),
                                  build_block(cfg), cfg.integrator)


SWEEP_VALUES = {"s": [0.0, 0.25, 0.6], "tau": [-1.0, 0.0, 0.5],
                "B": [0.0, 0.3, 0.6], "lambda_3": [0.5, 1.0, 2.0]}


@pytest.mark.parametrize("param", ["s", "tau", "B", "lambda_3"])
def test_sweep_family_once_per_bath(tmp_path, monkeypatch, param):
    # s and tau rows share the configured bath; B and lambda rows each have their own
    calls = 1 if param in ("s", "tau") else 3
    seen = []

    def counted(block):
        seen.append(block)
        return stationary_family(block)

    monkeypatch.setattr(cli, "stationary_family", counted)
    cfg = load_config(write_config(tmp_path, BASE))
    assert len(list(cli.sweep_rows(cfg, param, SWEEP_VALUES[param]))) == 3
    assert len(seen) == calls


@pytest.mark.parametrize("param", ["s", "tau", "B", "lambda_3"])
def test_sweep_end_map_once_per_bath(tmp_path, monkeypatch, param):
    # one end-time map per distinct bath, as for the stationary family, and
    # one assembly per row: the screened end state is the one measured
    calls = 1 if param in ("s", "tau") else 3
    seen, stacks, measured = [], [], []

    def counted(block, **kwargs):
        seen.append(block)
        return final_map(block, **kwargs)

    def assembled(vectors):
        stacks.append(pairbath.pauli_algebra.assemble_matrices(vectors))
        return stacks[-1]

    def measured_concurrence(mat):
        measured.append(mat)
        return concurrence(mat)

    _generator_tensor()  # built once per process, from its own assembly
    monkeypatch.setattr(cli, "final_map", counted)
    monkeypatch.setattr("pairbath.generator.assemble_matrices", assembled)
    monkeypatch.setattr(cli, "concurrence", measured_concurrence)
    cfg = load_config(write_config(tmp_path, BASE))
    assert len(list(cli.sweep_rows(cfg, param, SWEEP_VALUES[param]))) == 3
    assert len(seen) == calls
    assert len(stacks) == len(measured) == 3
    assert all(np.shares_memory(m, s) for m, s in zip(measured, stacks))


def _hand_built_row(cfg, param, value):
    lam = np.array(cfg.bath["lambda"], dtype=float)
    B = np.array(cfg.bath["B"], dtype=float)
    initial = werner_state(cfg.initial["werner"]["s"])
    if param == "tau":
        initial = np.zeros(15)
        initial[TAU_ENTRIES] = value / 3.0
    elif param == "B":
        B = value * (B / np.linalg.norm(B))
    else:
        lam[2] = value
    return initial, make_bath(np.diag(lam), B)


@pytest.mark.parametrize("param", ["tau", "B", "lambda_3"])
def test_sweep_rows_match_direct_evolve(tmp_path, param):
    cfg = load_config(write_config(tmp_path, BASE))
    rows = list(cli.sweep_rows(cfg, param, SWEEP_VALUES[param]))
    assert [r[0] for r in rows] == SWEEP_VALUES[param]
    for value, c_closed, c_evolved, delta_c in rows:
        initial, block = _hand_built_row(cfg, param, value)
        fam = stationary_family(block)
        assert c_closed == concurrence_closed(fam.M, fam.R, tau_of(initial))["C"]
        _assert_final_concurrence(c_evolved, initial, block, cfg.integrator)
        if param == "tau":
            assert delta_c is None
        else:
            assert isinstance(delta_c, float)


def test_sweep_integration_failure_exit_2(tmp_path, capsys, monkeypatch):
    # the end state is checked as evolve checks its samples: on a block that
    # is not completely positive it has the eigenvalue -3.0e-3 at t_f
    bad = non_cp_block(np.eye(3), [0.0, 0.0, 1.02])
    monkeypatch.setattr(cli, "final_map",
                        lambda block, **kwargs: final_map(bad, **kwargs))
    cfg = write_config(tmp_path, {**BASE, "initial": {"werner": {"s": 0.3}}})
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", "0.3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"integration failure: state eigenvalue -3\.000e-03 at "
                        r"t=49\.0196; " + EXIT_2_CAUSE, err), err
    assert not out.exists()


@pytest.mark.parametrize("command", [["evolve"], ["sweep", "--param", "s", "--values", "0.2"]])
def test_huge_step_exit_2_on_valid_config(tmp_path, capsys, command):
    # a completely positive bath: the squarings of the step exp(dt G) at
    # dt = 1e100 (dt*||G||_1 = 1.2e101) round the state to non-finite values
    cfg = write_config(tmp_path, {
        "bath": {"lambda": [1, 0.5, 0.2], "B": [0, 0, 0.3]},
        "initial": {"werner": {"s": 0.2}},
        "integrator": {"dt": 1e100, "t_end": 1e100}})
    out = tmp_path / "x.csv"
    assert cli.main([command[0], "--config", cfg, *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"integration failure: non-finite state coefficients at "
                        r"t=1e\+100; " + EXIT_2_CAUSE, err), err
    assert not out.exists()


SLOW_BATH = {"lambda": [1, 0.5, 0.2], "B": [0, 0, 0.3]}
FAST_BATH = {"lambda": [100, 50, 20], "B": [0, 0, 10]}
HORIZON = r"need 0 < dt <= t_end and a finite t_end / dt, "


@pytest.mark.parametrize("bath, integrator, message", [
    (SLOW_BATH, {"dt": 2, "t_end": 1}, HORIZON + r"got dt = 2, t_end = 1"),
    # larger than the default horizon 50 / rate_scale = 50
    (SLOW_BATH, {"dt": 100}, HORIZON + r"got dt = 100, t_end = 50"),
    (SLOW_BATH, {"dt": 1e-3, "t_end": 1e307},
     HORIZON + r"got dt = 0\.001, t_end = 1e\+307"),
    # |G|_1 = 1200: the product overflows, or 2^s would
    (FAST_BATH, {"dt": 1e307, "t_end": 1e307},
     r"step 1e\+307 times the generator's 1-norm, inf, is past 2\^1023; "
     r"need a smaller dt or t_end"),
    (FAST_BATH, {"dt": 1e305, "t_end": 1e305},
     r"step 1e\+305 times the generator's 1-norm, 1\.2e\+308, is past 2\^1023; "
     r"need a smaller dt or t_end"),
], ids=["dt>t_end", "dt>default-horizon", "step-count-overflow", "norm-overflow",
        "norm-past-2^1023"])
@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_bad_horizon_is_config_error(tmp_path, capsys, bath, integrator, message,
                                     command):
    cfg = write_config(tmp_path, {"bath": bath, "initial": {"werner": {"s": 0.2}},
                                  "integrator": integrator})
    argv = {"evolve": [], "sweep": ["--param", "s", "--values", "0.2"]}[command]
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", cfg, *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch("config error: integrator: " + message + "\n",
                        captured.err), captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("param", ["B", "lambda_1"])
def test_sweep_invalid_configured_bath_exit_1(tmp_path, capsys, param):
    # every swept bath is valid, the configured one (|B|^2 > lam1 lam2) is not
    values = {"B": "0.5,0.6", "lambda_1": "3,4"}[param]
    cfg = write_config(tmp_path, {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 1.5]},
                                  "initial": {"werner": {"s": 0.25}}})
    out = tmp_path / "x.csv"
    code = cli.main(["sweep", "--config", cfg, "--param", param,
                     "--values", values, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: bath: " in err and "sweep" not in err
    assert not out.exists()


@pytest.mark.parametrize("param", ["B", "lambda_1"])
def test_sweep_invalid_row_bath_names_the_value(tmp_path, capsys, param):
    value = {"B": "2.0", "lambda_1": "0.1"}[param]
    cfg = write_config(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--param", param,
                     "--values", f"0.5,{value}", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"sweep {param} value {value}: bath: " in capsys.readouterr().err


def test_sweep_B_values(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg, "--param", "B",
                     "--values", "0,0.3,0.6", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    rows = [ln.split(",") for ln in lines[2:]]
    # B = 0 with tau = -2 < -1 = threshold: entangled equilibrium
    assert float(rows[0][1]) > 0
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) < 1e-5


def test_sweep_lambda_requires_rate_config(tmp_path, capsys):
    obj = {"bath": {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "B": [0, 0, 0.5]},
           "initial": {"werner": {"s": 0.25}}}
    cfg = write_config(tmp_path, obj)
    code = cli.main(["sweep", "--config", cfg, "--param", "lambda_1",
                     "--values", "1,2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "rates" in capsys.readouterr().err


def test_sweep_lambda_runs(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "l.csv"
    assert cli.main(["sweep", "--config", cfg, "--param", "lambda_3",
                     "--values", "0.5,1.0,2.0", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    for ln in lines[2:]:
        parts = ln.split(",")
        assert abs(float(parts[1]) - float(parts[2])) < 1e-5


def test_sweep_s_requires_werner(tmp_path, capsys):
    obj = {"bath": {"lambda": [1, 1, 1], "B": [0, 0, 0.5]},
           "initial": {"product": {"phi": [1, 0], "psi": [1, 0]}}}
    cfg = write_config(tmp_path, obj)
    code = cli.main(["sweep", "--config", cfg, "--param", "s",
                     "--values", "0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "werner" in capsys.readouterr().err


# ------------------------------------------------------------------- check

def test_check_passes(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) == len(pairbath.selfcheck.SUITES)
    assert all(ln.startswith("PASS") for ln in lines)


def test_library_runs_without_scipy(tmp_path):
    # pyproject.toml promises numpy alone, but the test extra installs scipy,
    # so a stray scipy import shows only with scipy blocked in a fresh process
    cfg = write_config(tmp_path, {"bath": {"lambda": [1, 0, 0], "B": [0, 0, 0]},
                                  "initial": {"werner": {"s": 0.25}}})
    child = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "from pairbath import cli\n"
             "print(cli.main(['check']), "
             "cli.main(['steady', '--config', sys.argv[1], '--numeric-only']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "error", "-c", child, cfg],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 0", run.stdout


def test_check_reports_suite_wall_time(monkeypatch, capsys):
    monkeypatch.setattr(pairbath.selfcheck, "SUITES", pairbath.selfcheck.SUITES[:2])
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        detail, seconds = line.rsplit("; ", 1)
        assert detail.startswith("PASS ")
        assert seconds.endswith(" s)") and float(seconds[:-3]) >= 0


def test_check_deterministic():
    a = [result[:3] for result in pairbath.selfcheck.run_all(seed=5)]
    b = [result[:3] for result in pairbath.selfcheck.run_all(seed=5)]
    assert a == b


def test_check_corrupted_epsilon_exits_4(monkeypatch, capsys):
    # mutation hook: a wrong antisymmetric symbol must break the algebra suite
    original = pairbath.pauli_algebra.levi_civita

    def corrupted(i, j, k):
        if (i, j, k) == (0, 1, 2):
            return -1.0
        return original(i, j, k)

    monkeypatch.setattr(pairbath.pauli_algebra, "levi_civita", corrupted)
    code = cli.main(["check"])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL appendix-algebra" in captured.out
    assert "appendix-algebra" in captured.err


def test_seed_changes_draws_not_verdicts(monkeypatch):
    monkeypatch.setenv("PAIRBATH_SEED", "123")
    results = pairbath.selfcheck.run_all()
    assert all(ok for _, ok, _, _ in results)
