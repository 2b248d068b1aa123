"""Batch front end: round trips, schema errors, reproducibility."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_fisher_information, rowwise_load_dataset
from twdglm import cli
from twdglm.cli import (load_dataset, read_coefficients, run_command,
                        write_wald_table)
from twdglm.errors import DomainError, SchemaError
from twdglm.family import FamilySpec
from twdglm.graph import ArealGraph
from twdglm.inference import wald_table
from twdglm.links import link_eval


def run_ok(argv, capsys=None):
    code = run_command(argv)
    assert code == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    run_ok(["simulate", "--out", str(out), "--n", "900", "--lattice", "3x3",
            "--zero-prop", "0.2", "--seed", "5", "--p", "1.5"])
    return out


@pytest.fixture(scope="module")
def small_sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    run_ok(["simulate", "--out", str(out), "--n", "200", "--lattice", "3x3",
            "--seed", "1"])
    return out


def cpg_argv(command, sim, *flags):
    """``command`` on the data and graph in ``sim`` with the compound
    Poisson-gamma family at p = 1.5, then ``flags``."""
    return [command, "--data", str(sim / "data.csv"), "--graph",
            str(sim / "graph.tsv"), "--family", "cpg", "--p", "1.5", *flags]


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    """A saddlepoint fit of the instance in ``sim_dir``."""
    out = tmp_path_factory.mktemp("fit")
    run_ok(cpg_argv("fit", sim_dir, "--approx", "saddlepoint", "--out",
                    str(out)))
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("data.csv", "graph.tsv", "oracle.tsv",
                     "effective_config.json"):
            assert (sim_dir / name).exists()

    def test_graph_parses_back(self, sim_dir):
        g = ArealGraph.from_edge_list_file(sim_dir / "graph.tsv")
        assert g.n_vertices == 9
        assert len(g.edges) == 12  # rook 3x3

    def test_oracle_round_trip(self, sim_dir):
        theta, beta_names, gamma_names, labels = read_coefficients(
            sim_dir / "oracle.tsv")
        assert beta_names[0] == "(intercept)"
        assert len(labels) == 9
        assert theta.gamma.size == 5


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\nb\tc\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex,x_1,z_1\n1.5,a,0.2,1\n0,b,0.1,0\n"
                        "2.25,c,0.7,1\n", encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        data, bn, gn = load_dataset(csvf,
                                    FamilySpec.compound_poisson_gamma(1.5),
                                    g)
        assert data.n_rows == 3
        assert bn == ["(intercept)", "x_1"]
        assert gn == ["(intercept)", "z_1"]

    def test_missing_y_column(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("resp,vertex\n1,a\n", encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        with pytest.raises(SchemaError, match="'y'"):
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5), g)

    def test_negative_response_cites_row(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex\n-1,a\n2,b\n", encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        with pytest.raises(DomainError, match="row 1"):
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5), g)

    def test_unknown_vertex_cites_row(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex\n1,a\n1,zzz\n", encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        with pytest.raises(SchemaError, match="row 2"):
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5), g)

    def test_expand_categorical(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex,x_color\n1,a,red\n2,b,blue\n1,a,green\n",
                        encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        with pytest.raises(SchemaError):
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5), g)
        data, bn, _ = load_dataset(csvf,
                                   FamilySpec.compound_poisson_gamma(1.5),
                                   g, expand=True)
        # last sorted level ("red") dropped
        assert bn == ["(intercept)", "x_color[blue]", "x_color[green]"]
        np.testing.assert_array_equal(data.X[:, 1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("body", [
        "1,a,{long}\n", "{zeros}1,a,x\n", '1,"{lines}a",x\n',
    ], ids=["text", "number", "quoted-line-ends"])
    def test_field_over_the_csv_limit(self, tmp_path, body):
        """numpy's C reader has no field size limit, so ``csv``'s error
        for an over-long field stands."""
        limit = csv.field_size_limit()
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex,note\n" + body.format(
            long="n" * (limit + 1), zeros="0" * limit,
            lines=" \n" * (limit // 2 + 1)), encoding="utf-8")
        with open(csvf, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            with pytest.raises(csv.Error) as want:
                list(reader)
        with pytest.raises(SchemaError) as got:
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5),
                         ArealGraph.from_edge_list_file(graph))
        assert str(got.value) == (f"{csvf}: line {reader.line_num}: "
                                  f"{want.value}")

    def test_duplicate_column_rejected(self, small_sim_dir, tmp_path,
                                       capsys):
        # the second 'y' would otherwise silently replace the first
        with open(small_sim_dir / "data.csv", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))[:4]
        rows = [["y", "exposure", "vertex", "y"]] + [
            r[:3] + ["-5"] for r in rows[1:]]
        bad = tmp_path / "dup.csv"
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run_command(["fit", "--data", str(bad), "--graph",
                            str(small_sim_dir / "graph.tsv"), "--out",
                            str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[E_SCHEMA]: {bad}: duplicate column 'y'\n")

    def test_header_only_file(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        csvf = tmp_path / "d.csv"
        csvf.write_text("y,vertex\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_dataset(csvf, FamilySpec.compound_poisson_gamma(1.5),
                         ArealGraph.from_edge_list_file(graph))
        assert str(err.value) == f"{csvf}: no data rows"

    def test_quoted_header_reads_as_unquoted(self, tmp_path):
        """A quote in the header sends the file to the column-wise
        reader, which takes the quoted names as the plain ones."""
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\n", encoding="utf-8")
        g = ArealGraph.from_edge_list_file(graph)
        spec = FamilySpec.compound_poisson_gamma(1.5)
        body = "1.5,a,0.2\n0,b,0.1\n"
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("y,vertex,x_1\n" + body, encoding="utf-8")
        quoted.write_text('"y","vertex","x_1"\n' + body, encoding="utf-8")
        assert cli._line_layout(quoted) is None
        (want, *want_names), (got, *got_names) = (
            load_dataset(f, spec, g) for f in (plain, quoted))
        assert got_names == want_names
        for name in ("y", "w", "vertex", "X", "Z"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


class TestReadTable:
    def test_line_with_another_field_count(self, tmp_path):
        path = tmp_path / "summary.tsv"
        path.write_text("key\tvalue\nn_rows\t3\nalpha_sd\t0.5\textra\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            list(cli._read_table(path, ("key", "value"), "summary"))
        assert str(err.value) == f"{path}: line 3: expected 2 fields"


def _shift_responses(sim, out):
    """Copy the instance in ``sim`` to ``out`` with 1 added to every
    response, so that the Gamma and inverse Gaussian members accept it."""
    with open(sim / "data.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(out / "data.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(
            [header] + [[repr(float(r[0]) + 1.0)] + r[1:] for r in rows])
    (out / "graph.tsv").write_bytes((sim / "graph.tsv").read_bytes())
    return out


@pytest.fixture(scope="module")
def positive_sim_dir(sim_dir, tmp_path_factory):
    """The instance of ``sim_dir`` with 1 added to every response."""
    return _shift_responses(sim_dir, tmp_path_factory.mktemp("positive"))


def test_tune_reports_cells_whose_scoring_raised(tmp_path_factory, capsys):
    """On this instance every training fit of inverse Gaussian converges,
    but each fitted mean predictor is negative on a hold-out row, so
    every cell's hold-out scoring raises, and the error says so, naming
    the first error; ``--out`` is made only after the search, so the
    refused tune leaves none."""
    sim = tmp_path_factory.mktemp("ig")
    run_ok(["simulate", "--n", "3000", "--lattice", "4x4", "--seed", "3",
            "--out", str(sim)])
    _shift_responses(sim, sim)
    out = sim / "tune"
    code = run_command(["tune", "--data", str(sim / "data.csv"), "--graph",
                        str(sim / "graph.tsv"), "--family",
                        "inverse-gaussian", "--grid=-1:1:2,-1:1:2", "--out",
                        str(out)])
    assert (code, capsys.readouterr().err) == (
        2, "error[E_CONFIG]: every grid cell failed (hold-out scoring "
        "raised in 4 of 4); first: DomainError: inverse-squared link "
        "inverse requires t > 0\n")
    assert not out.exists()


class TestIndexGridOption:
    """``--p-grid`` either means what it says or ends in one error line
    before ``--out`` exists."""

    @pytest.mark.parametrize("family, grid, line", [
        ("gamma", "5:9:1", "p_grid does not apply to gamma, whose index is "
         "fixed at p = 2.0"),
        ("gamma", "1.1:1.5:0.4", "p_grid does not apply to gamma, whose "
         "index is fixed at p = 2.0"),
        ("normal", "0:0.5:0.5", "p_grid does not apply to normal, whose "
         "index is fixed at p = 0.0"),
        ("inverse-gaussian", "3:3.5:0.5", "p_grid does not apply to "
         "inverse-gaussian, whose index is fixed at p = 3.0"),
        ("cpg", "1:2", "--p-grid expects lo:hi:step"),
        ("cpg", "2:1:0.1", "--p-grid expects lo <= hi and step > 0"),
        ("cpg", "1:2:0", "--p-grid expects lo <= hi and step > 0"),
        ("cpg", "0.5:1.5:0.5", "p_grid must lie inside (1, 2)"),
    ], ids=["gamma", "gamma-inside-1-2", "normal", "inverse-gaussian",
            "two-parts", "descending", "zero-step", "outside"])
    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_refused_grid_is_one_config_line(self, positive_sim_dir,
                                             tmp_path, capsys, command,
                                             family, grid, line):
        out = tmp_path / "out"
        code = run_command(
            [command, "--data", str(positive_sim_dir / "data.csv"),
             "--graph", str(positive_sim_dir / "graph.tsv"), "--family",
             family, "--p-grid", grid, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"error[E_CONFIG]: {line}\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, grid, line", [
        ("gamma", "1:2:0.5", "p_grid does not apply to gamma, whose index "
         "is fixed at p = 2.0"),
        ("cpg", "1:2:0", "--p-grid expects lo <= hi and step > 0"),
    ], ids=["refused", "malformed"])
    @pytest.mark.parametrize("files", ["given", "absent"])
    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_grid_checked_before_any_file(self, sim_dir, tmp_path, capsys,
                                          command, files, family, grid,
                                          line):
        """The grid is checked before ``--graph`` and ``--data`` are
        read: with both given (data that Gamma's support refuses, as the
        instance has zero responses) or with neither, the grid's line is
        the one reported."""
        out = tmp_path / "out"
        paths = ["--data", str(sim_dir / "data.csv"), "--graph",
                 str(sim_dir / "graph.tsv")] if files == "given" else []
        code = run_command([command, *paths, "--family", family,
                            "--p-grid", grid, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"error[E_CONFIG]: {line}\n")
        assert not out.exists()

    def test_fixed_member_takes_its_own_point(self, positive_sim_dir,
                                              tmp_path):
        """``--p-grid 2:2:1`` is Gamma's own single point: the fit is
        that without the flag, and p_hat is 2."""
        argv = ["fit", "--data", str(positive_sim_dir / "data.csv"),
                "--graph", str(positive_sim_dir / "graph.tsv"), "--family",
                "gamma"]
        run_ok(argv + ["--out", str(tmp_path / "plain")])
        run_ok(argv + ["--p-grid", "2:2:1", "--out", str(tmp_path / "own")])
        for name in ("coefficients.tsv", "summary.tsv"):
            assert (tmp_path / "own" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()
        assert "p_hat\t2\n" in (tmp_path / "own" / "summary.tsv").read_text()


class TestPipeline:
    def test_fit_then_report(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        run_ok(cpg_argv("fit", sim_dir, "--approx", "saddlepoint", "--lambda1",
                        "1", "--lambda2", "1", "--out", str(fit_out)))
        for name in ("coefficients.tsv", "wald.tsv", "trace.tsv",
                     "summary.tsv", "effective_config.json"):
            assert (fit_out / name).exists()
        rep_out = tmp_path / "rep"
        run_ok(["report", "--fit-dir", str(fit_out), "--oracle",
                str(sim_dir / "oracle.tsv"), "--out", str(rep_out)])
        lines = (rep_out / "alpha_vs_pattern.tsv").read_text().strip()
        assert lines.startswith("vertex\talpha_hat\talpha_oracle")
        assert len(lines.split("\n")) == 10

    def test_wald_table_from_the_dense_information(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        with mock.patch.object(cli, "fisher_information",
                               wraps=cli.fisher_information) as info:
            run_ok(cpg_argv("fit", sim_dir, "--out", str(out)))
        theta = info.call_args.args[1]
        dense = dense_fisher_information(*info.call_args.args)
        kb, m = theta.beta.size, theta.beta.size + theta.alpha.size
        _, beta_names, gamma_names, _ = read_coefficients(
            out / "coefficients.tsv")
        rows = wald_table(theta, (dense[:kb, :kb], dense[m:, m:]),
                          beta_names, gamma_names)
        write_wald_table(tmp_path / "want.tsv", rows)
        assert (out / "wald.tsv").read_bytes() == \
            (tmp_path / "want.tsv").read_bytes()

    def test_alpha_summary_in_fit_summary(self, fit_dir):
        summary = dict(
            line.split("\t") for line in
            (fit_dir / "summary.tsv").read_text().strip().split("\n")[1:])
        for key in ("alpha_mean", "alpha_median", "alpha_sd", "alpha_range"):
            assert key in summary

    def test_poisson_with_dispersion_columns_rejected(self, sim_dir,
                                                      tmp_path, capsys):
        code = run_command(
            ["fit", "--data", str(sim_dir / "data.csv"), "--graph",
             str(sim_dir / "graph.tsv"), "--family", "poisson", "--out",
             str(tmp_path / "poi")])
        captured = capsys.readouterr()
        assert code != 0
        assert "error[E_CONFIG]" in captured.err
        assert "constant dispersion" in captured.err

    def test_poisson_with_identity_dispersion_link_rejected(self, sim_dir,
                                                            tmp_path,
                                                            capsys):
        """Poisson's fixed dispersion is h2(0), which the identity link
        puts at 0, so no fit could start; counts without dispersion
        columns reach the link check."""
        data = tmp_path / "counts.csv"
        data.write_text("y,vertex,x_1\n" + "".join(
            f"{k % 4},r{k % 3}c{k // 3 % 3},{k % 5}\n" for k in range(30)))
        argv = ["fit", "--data", str(data), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "poisson"]
        run_ok(argv + ["--out", str(tmp_path / "log")])
        out = tmp_path / "identity"
        code = run_command(argv + ["--disp-link", "identity", "--out",
                                   str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[E_CONFIG]: ") and err.count("\n") == 1
        assert "poisson" in err
        assert not out.exists()

    def test_tune_then_predict_consistency(self, sim_dir, tmp_path):
        tune_out = tmp_path / "tune"
        run_ok(cpg_argv("tune", sim_dir, "--approx", "saddlepoint",
                        "--grid=-2:2:3,-2:2:3", "--seed", "11", "--out",
                        str(tune_out)))
        assert (tune_out / "surface.tsv").exists()
        surface = (tune_out / "surface.tsv").read_text().strip().split("\n")
        assert len(surface) == 10

        # rebuild the hold-out rows and score them with the tuned fit
        hold = [int(v) for v in
                (tune_out / "holdout_rows.txt").read_text().split()]
        src = (sim_dir / "data.csv").read_text().strip().split("\n")
        hold_csv = tmp_path / "holdout.csv"
        hold_csv.write_text(
            "\n".join([src[0]] + [src[i + 1] for i in hold]) + "\n",
            encoding="utf-8")
        pred_out = tmp_path / "pred"
        run_ok(["predict", "--data", str(hold_csv), "--graph",
                str(sim_dir / "graph.tsv"), "--fit-dir", str(tune_out),
                "--out", str(pred_out)])
        pred_summary = dict(
            line.split("\t") for line in
            (pred_out / "predict_summary.tsv").read_text().strip()
            .split("\n")[1:])
        tune_summary = dict(
            line.split("\t") for line in
            (tune_out / "summary.tsv").read_text().strip().split("\n")[1:])
        assert float(pred_summary["total_weighted_deviance"]) == \
            pytest.approx(float(tune_summary["holdout_weighted_deviance"]),
                          abs=1e-9)

    def test_byte_identical_reruns_and_config_echo(self, sim_dir, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
        argv = cpg_argv("fit", sim_dir, "--approx", "saddlepoint", "--lambda1",
                        "0.5", "--lambda2", "2")
        run_ok(argv + ["--out", str(out1)])
        run_ok(argv + ["--out", str(out2)])
        c1 = (out1 / "coefficients.tsv").read_bytes()
        assert c1 == (out2 / "coefficients.tsv").read_bytes()
        # echoed config reproduces the run without any explicit flags
        run_ok(["fit", "--config", str(out1 / "effective_config.json"),
                "--out", str(out3)])
        assert c1 == (out3 / "coefficients.tsv").read_bytes()

    def test_old_config_with_retired_keys(self, fit_dir, tmp_path, capsys):
        cfg = json.loads((fit_dir / "effective_config.json").read_text())
        assert "threads" not in cfg and "max_block" not in cfg
        # configs echoed before the keys were retired still load, and
        # hold the keys of every command
        cfg.update({"threads": 1, "max_block": None})
        for key, opt in cli._OPTIONS.items():
            cfg.setdefault(key, opt.default)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(cfg), encoding="utf-8")
        run_ok(["fit", "--config", str(old), "--out", str(tmp_path / "o")])
        assert (fit_dir / "coefficients.tsv").read_bytes() == \
            (tmp_path / "o" / "coefficients.tsv").read_bytes()
        cfg["max_block"] = 25
        old.write_text(json.dumps(cfg), encoding="utf-8")
        code = run_command(["fit", "--config", str(old), "--out",
                            str(tmp_path / "o2")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[E_CONFIG]") and "'max_block'" in err

    @pytest.mark.parametrize("lambda2", ["0", "1"])
    def test_zero_lambda1_fits(self, sim_dir, tmp_path, lambda2):
        # the intercept plus the vertex indicators make the mean system
        # singular without the ridge term
        out = tmp_path / "fit"
        run_ok(cpg_argv("fit", sim_dir, "--approx", "saddlepoint", "--lambda1",
                        "0", "--lambda2", lambda2, "--out", str(out)))
        trace = np.loadtxt(out / "trace.tsv", skiprows=1)[:, 1]
        assert np.all(np.diff(trace) <= 1e-10)

    @pytest.mark.parametrize("column,cell,what", [
        ("y", "nan", "non-finite"),
        ("y", "inf", "non-finite"),
        ("exposure", "0", "non-positive"),
        ("x_2", "nan", "non-finite"),
        ("z_3", "-inf", "non-finite"),
    ])
    def test_bad_cell_is_schema_error(self, small_sim_dir, tmp_path, capsys,
                                      column, cell, what):
        with open(small_sim_dir / "data.csv", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index(column)] = cell
        bad = tmp_path / "bad.csv"
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run_command(["fit", "--data", str(bad), "--graph",
                            str(small_sim_dir / "graph.tsv"), "--family",
                            "cpg", "--p", "1.5", "--approx", "saddlepoint",
                            "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[E_SCHEMA]: {bad}: row 5, column {column!r}: {what} "
            f"value {cell!r}\n")

    def test_too_small_to_fit_fails_before_iterating(self, small_sim_dir,
                                                     tmp_path, capsys):
        # one row for five columns of X: the mean step has no solution
        lines = (small_sim_dir / "data.csv").read_text().split("\n")
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        argv = ["fit", "--data", str(one), "--graph",
                str(small_sim_dir / "graph.tsv"), "--out",
                str(tmp_path / "o")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == (
            "error[E_SINGULAR]: unpenalized mean design X is 1 x 5 with "
            "rank 1: beta is not identifiable\n")
        # with lambda1 = 0 the mean step is a minimum-norm solve, but the
        # dispersion design has no ridge term either
        assert run_command(argv + ["--lambda1", "0"]) == 1
        assert capsys.readouterr().err == (
            "error[E_SINGULAR]: unpenalized dispersion design Z is 1 x 5 "
            "with rank 1: gamma is not identifiable\n")
        assert not (tmp_path / "o" / "trace.tsv").exists()

    def test_unknown_family_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "z"
        code = run_command(["fit", "--family", "weibull", "--data", "x",
                            "--graph", "y", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[E_CONFIG]" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--lattice", "3by3"], "E_CONFIG"),
        (["fit", "--data", "{sim}/nope.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg"], "E_IO"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid", "0:1"], "E_CONFIG"),
        (["predict", "--data", "{sim}/data.csv", "--graph",
          "{sim}/graph.tsv"], "E_CONFIG"),
        (["report"], "E_CONFIG"),
        (["simulate", "--zero-prop", "1.5"], "E_CONFIG"),
        (["simulate", "--lattice", "0x3"], "E_CONFIG"),
        (["simulate", "--n=-5"], "E_CONFIG"),
        (["simulate", "--n", "0"], "E_CONFIG"),
        (["simulate", "--n", "5", "--lattice", "3x3"], "E_CONFIG"),
        (["simulate", "--amplitude", "nan"], "E_CONFIG"),
        (["simulate", "--amplitude", "inf"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--p-grid", "nan:1.5:0.05"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--p-grid", "1.1:1.5:inf"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--p-grid", "1.1:inf:0.05"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--lambda1", "nan"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--lambda1", "inf"], "E_CONFIG"),
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--lambda1", "1e308", "--lambda2", "1e308"], "E_CONFIG"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid", "nan:5:2,-5:5:2"], "E_CONFIG"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid=-5:800:2,-5:5:2"], "E_CONFIG"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid=-5:5:2,-5:709:2"], "E_CONFIG"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid=-5:5:0,-5:5:2"], "E_CONFIG"),
        (["simulate", "--seed", "-1"], "E_CONFIG"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--grid=-1:1:2,-1:1:2", "--seed", "-1"], "E_CONFIG"),
        # sizes above 2**47 bytes, which no allocation can reach
        (["fit", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--p-grid", "1.0001:1.9999:1e-15"], "E_RUNTIME"),
        (["tune", "--data", "{sim}/data.csv", "--graph", "{sim}/graph.tsv",
          "--family", "cpg", "--grid=-5:5:1000000000000000,-5:5:2"],
         "E_RUNTIME"),
        (["simulate", "--n", "1000000000000000"], "E_RUNTIME"),
    ], ids=["simulate", "fit", "tune", "predict", "report",
            "simulate-zero-prop", "simulate-empty-lattice",
            "simulate-negative-n", "simulate-zero-n",
            "simulate-fewer-rows-than-vertices", "simulate-nan-amplitude",
            "simulate-inf-amplitude", "fit-nan-p-grid-lo",
            "fit-inf-p-grid-step", "fit-inf-p-grid-hi", "fit-nan-lambda1",
            "fit-inf-lambda1", "fit-overflowing-penalty", "tune-nan-grid",
            "tune-overflowing-grid", "tune-overflowing-penalty",
            "tune-empty-grid-axis", "simulate-negative-seed",
            "tune-negative-seed", "fit-unallocatable-p-grid",
            "tune-unallocatable-grid", "simulate-unallocatable-n"])
    def test_invalid_options_create_no_outdir(self, sim_dir, tmp_path,
                                              capsys, argv, code):
        """Each ends in one error line, with no warning on the way (an
        overflow, say) and no output directory."""
        out = tmp_path / "out"
        argv = [a.format(sim=sim_dir) for a in argv] + ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(argv) != 0
        err = capsys.readouterr().err
        assert ERROR_LINE.fullmatch(err) and err.startswith(f"error[{code}]")
        assert not out.exists()

    def test_missing_data_file_is_io_error(self, sim_dir, tmp_path, capsys):
        code = run_command(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--graph",
             str(sim_dir / "graph.tsv"), "--family", "cpg", "--out",
             str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.err.startswith("error[")


class TestPredictFitDir:
    """``predict --fit-dir`` takes the fit's model options and its p_hat
    only where neither a flag nor ``--config`` gives them."""

    @pytest.fixture(scope="class")
    def fit_dir(self, sim_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit_identity")
        run_ok(cpg_argv("fit", sim_dir, "--approx", "saddlepoint",
                        "--disp-link", "identity", "--out", str(out)))
        return out

    @staticmethod
    def _predict(sim_dir, out, *extra):
        """The echoed options of a predict run and its two output files."""
        run_ok(["predict", "--data", str(sim_dir / "data.csv"), "--out",
                str(out), *extra])
        return (json.loads((out / "effective_config.json").read_text()),
                (out / "predictions.tsv").read_bytes(),
                (out / "predict_summary.tsv").read_bytes())

    @staticmethod
    def _explicit(sim_dir, fit_dir, p="1.5", disp_link="identity"):
        """Flags that give predict the fit's coefficients and every model
        option, so that it reads nothing else of the fit directory."""
        return ["--coefficients", str(fit_dir / "coefficients.tsv"),
                "--graph", str(sim_dir / "graph.tsv"), "--p", p,
                "--disp-link", disp_link]

    def test_fit_dir_fills_unset_options(self, sim_dir, fit_dir, tmp_path):
        echoed, *got = self._predict(sim_dir, tmp_path / "a", "--fit-dir",
                                     str(fit_dir))
        assert (echoed["disp_link"], echoed["p"], echoed["graph"]) == (
            "identity", 1.5, str(sim_dir / "graph.tsv"))
        _, *want = self._predict(sim_dir, tmp_path / "b",
                                 *self._explicit(sim_dir, fit_dir))
        assert got == want

    def test_flag_equal_to_default_overrides_fit_dir(self, sim_dir, fit_dir,
                                                     tmp_path):
        echoed, got, _ = self._predict(sim_dir, tmp_path / "a", "--fit-dir",
                                       str(fit_dir), "--disp-link", "log")
        assert echoed["disp_link"] == "log"
        _, want, _ = self._predict(
            sim_dir, tmp_path / "b",
            *self._explicit(sim_dir, fit_dir, disp_link="log"))
        _, at_fit, _ = self._predict(sim_dir, tmp_path / "c",
                                     *self._explicit(sim_dir, fit_dir))
        assert got == want != at_fit

    def test_p_flag_overrides_fitted_p(self, sim_dir, fit_dir, tmp_path):
        echoed, _, got = self._predict(sim_dir, tmp_path / "a", "--fit-dir",
                                       str(fit_dir), "--p", "1.8")
        assert echoed["p"] == 1.8
        _, _, want = self._predict(sim_dir, tmp_path / "b",
                                   *self._explicit(sim_dir, fit_dir, p="1.8"))
        _, _, at_fit = self._predict(sim_dir, tmp_path / "c",
                                     *self._explicit(sim_dir, fit_dir))
        assert got == want != at_fit


class TestPredictMatchesNames:
    """``predict`` takes beta and gamma by name and alpha by vertex
    label, not by position."""

    @staticmethod
    def _predict(fit_dir, data, graph, out):
        """predict's exit code and, when it ran, its two output files."""
        code = run_command(["predict", "--data", str(data), "--graph",
                            str(graph), "--fit-dir", str(fit_dir), "--out",
                            str(out)])
        if code:
            return code, None
        return code, ((out / "predictions.tsv").read_bytes(),
                      (out / "predict_summary.tsv").read_bytes())

    @staticmethod
    def _rewrite_csv(src, dst, edit):
        with open(src, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(dst, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def test_predictions_are_the_model_at_the_coefficients(
            self, sim_dir, fit_dir, tmp_path):
        """mu_hat is h(X beta + alpha[vertex]) over the loaded design,
        to the last bit."""
        _, (predictions, _) = self._predict(
            fit_dir, sim_dir / "data.csv", sim_dir / "graph.tsv",
            tmp_path / "a")
        spec = FamilySpec.compound_poisson_gamma(1.5)
        data, _, _ = load_dataset(
            sim_dir / "data.csv", spec,
            ArealGraph.from_edge_list_file(sim_dir / "graph.tsv"))
        theta = read_coefficients(fit_dir / "coefficients.tsv")[0]
        mu = link_eval(spec.default_link,
                       data.X @ theta.beta + theta.alpha[data.vertex])
        got = [line.split("\t")[2]
               for line in predictions.decode().splitlines()[1:]]
        assert got == [f"{m:.17g}" for m in mu.tolist()]

    def test_reordered_graph(self, sim_dir, fit_dir, tmp_path):
        lines = (sim_dir / "graph.tsv").read_text().splitlines(True)
        reversed_graph = tmp_path / "reversed.tsv"
        reversed_graph.write_text("".join(reversed(lines)))
        assert (ArealGraph.from_edge_list_file(reversed_graph).labels
                != ArealGraph.from_edge_list_file(
                    sim_dir / "graph.tsv").labels)
        want = self._predict(fit_dir, sim_dir / "data.csv",
                             sim_dir / "graph.tsv", tmp_path / "a")
        got = self._predict(fit_dir, sim_dir / "data.csv", reversed_graph,
                            tmp_path / "b")
        assert got == want and want[0] == 0

    def test_permuted_columns(self, sim_dir, fit_dir, tmp_path):
        def swap(rows):
            header = rows[0]
            for a, b in (("x_1", "x_2"), ("z_1", "z_4")):
                i, j = header.index(a), header.index(b)
                for row in rows:
                    row[i], row[j] = row[j], row[i]
        permuted = tmp_path / "permuted.csv"
        self._rewrite_csv(sim_dir / "data.csv", permuted, swap)
        want = self._predict(fit_dir, sim_dir / "data.csv",
                             sim_dir / "graph.tsv", tmp_path / "a")
        got = self._predict(fit_dir, permuted, sim_dir / "graph.tsv",
                            tmp_path / "b")
        assert got == want and want[0] == 0

    @pytest.mark.parametrize("case", [
        "unknown-label", "dropped-vertex", "missing-column", "extra-column",
    ])
    def test_unmatched_name_is_config_error(self, sim_dir, fit_dir,
                                            tmp_path, capsys, case):
        data, graph = tmp_path / "data.csv", tmp_path / "graph.tsv"
        lines = (sim_dir / "graph.tsv").read_text()
        graph.write_text(lines + "zz\n" if case == "unknown-label"
                         else lines)

        def edit(rows):
            vertex = rows[0].index("vertex")
            if case == "unknown-label":
                rows[5][vertex] = "zz"
            elif case == "dropped-vertex":
                rows[:] = [row for row in rows if row[vertex] != "r1c1"]
            elif case == "missing-column":
                j = rows[0].index("x_3")
                for row in rows:
                    del row[j]
            else:
                for row in rows:
                    row.append("0.5" if row is not rows[0] else "x_5")
        self._rewrite_csv(sim_dir / "data.csv", data, edit)
        if case == "dropped-vertex":
            # the fit's vertex r1c1 is left out of the graph and the data
            graph.write_text("".join(line for line in lines.splitlines(True)
                                     if "r1c1" not in line))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self._predict(fit_dir, data, graph, out) == (2, None)
        err = capsys.readouterr().err
        assert ERROR_LINE.fullmatch(err) and err.startswith(
            f"error[E_CONFIG]: {fit_dir / 'coefficients.tsv'}: ")
        assert not out.exists()


class TestUnreadableFiles:
    """A file that is not UTF-8 text, or a configuration that is not a
    JSON object, ends in one error line naming the file (and the line,
    where it is known), not in a traceback."""

    @staticmethod
    def _one_error_line(argv, capsys):
        code = run_command(argv)
        err = capsys.readouterr().err
        assert code == 2 and ERROR_LINE.fullmatch(err), err
        return err

    def _predict(self, sim_dir, fit_dir, out, extra=()):
        return ["predict", "--fit-dir", str(fit_dir), "--data",
                str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--out", str(out), *extra]

    def test_data(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"y,vertex\n1,\xff\n")
        err = self._one_error_line(
            ["fit", "--data", str(bad), "--graph", str(sim_dir / "graph.tsv"),
             "--family", "cpg", "--out", str(tmp_path / "o")], capsys)
        assert err == (f"error[E_SCHEMA]: {bad}: line 2: byte 0xff is not "
                       "UTF-8\n")

    def test_graph(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"r0c0\tr0c1\n\xff\xfe\tr0c2\n")
        err = self._one_error_line(
            ["fit", "--data", str(sim_dir / "data.csv"), "--graph", str(bad),
             "--family", "cpg", "--out", str(tmp_path / "o")], capsys)
        assert err == (f"error[E_SCHEMA]: {bad}: line 2: byte 0xff is not "
                       "UTF-8\n")

    def test_coefficients(self, sim_dir, fit_dir, tmp_path, capsys):
        bad = tmp_path / "coefficients.tsv"
        lines = (fit_dir / "coefficients.tsv").read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"\t", b"\xe9\t", 1)
        bad.write_bytes(b"\n".join(lines))
        err = self._one_error_line(
            self._predict(sim_dir, fit_dir, tmp_path / "o",
                          ["--coefficients", str(bad)]), capsys)
        assert err == (f"error[E_SCHEMA]: {bad}: line 4: byte 0xe9 is not "
                       "UTF-8\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["coefficients", "oracle", "summary"])
    def test_non_finite_value(self, sim_dir, fit_dir, tmp_path, capsys,
                              which):
        """A number that reads back as nan is a schema error at its
        line, not a config error about the model built from it."""
        bad_dir = tmp_path / "fit"
        bad_dir.mkdir()
        for name in ("coefficients.tsv", "summary.tsv",
                     "effective_config.json"):
            (bad_dir / name).write_bytes((fit_dir / name).read_bytes())
        out = tmp_path / "o"
        if which == "summary":
            bad = bad_dir / "summary.tsv"
            lines = bad.read_text(encoding="utf-8").split("\n")
            lineno = next(i for i, line in enumerate(lines, start=1)
                          if line.startswith("p_hat\t"))
            lines[lineno - 1] = "p_hat\tnan"
            argv = self._predict(sim_dir, bad_dir, out)
            reason = "non-finite p_hat value"
        else:
            src = (fit_dir / "coefficients.tsv" if which == "coefficients"
                   else sim_dir / "oracle.tsv")
            bad = tmp_path / "bad.tsv"
            lines = src.read_text(encoding="utf-8").split("\n")
            lineno = 3
            block, name, _ = lines[lineno - 1].split("\t")
            lines[lineno - 1] = f"{block}\t{name}\tnan"
            argv = (self._predict(sim_dir, bad_dir, out,
                                  ["--coefficients", str(bad)])
                    if which == "coefficients" else
                    ["report", "--fit-dir", str(bad_dir), "--oracle",
                     str(bad), "--out", str(out)])
            reason = "non-finite value"
        bad.write_text("\n".join(lines), encoding="utf-8")
        err = self._one_error_line(argv, capsys)
        assert err == f"error[E_SCHEMA]: {bad}: line {lineno}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["coefficients", "summary"])
    def test_table_header(self, sim_dir, fit_dir, tmp_path, capsys, which):
        """A fit directory's table whose first line is not its header is
        a schema error naming the file."""
        bad_dir = tmp_path / "fit"
        bad_dir.mkdir()
        for name in ("coefficients.tsv", "summary.tsv",
                     "effective_config.json"):
            (bad_dir / name).write_bytes((fit_dir / name).read_bytes())
        bad = bad_dir / f"{which}.tsv"
        bad.write_text(bad.read_text(encoding="utf-8").replace(
            "\tvalue\n", "\tval\n", 1), encoding="utf-8")
        out = tmp_path / "o"
        err = self._one_error_line(self._predict(sim_dir, bad_dir, out),
                                   capsys)
        assert err == f"error[E_SCHEMA]: {bad}: not a {which} file\n"
        assert not out.exists()

    @pytest.mark.parametrize("content,reason", [
        (b'{"family": "cpg",\n "p": 1.5,,}',
         "Expecting property name enclosed in double quotes: line 2 "
         "column 11 (char 28)"),
        (b'["cpg"]', "expected a JSON object"),
        (b'{"family":\n"\xff"}', "line 2: byte 0xff is not UTF-8"),
    ])
    def test_fit_dir_config(self, sim_dir, fit_dir, tmp_path, capsys,
                            content, reason):
        bad_dir = tmp_path / "fit"
        bad_dir.mkdir()
        for name in ("coefficients.tsv", "summary.tsv"):
            (bad_dir / name).write_bytes((fit_dir / name).read_bytes())
        cfg = bad_dir / "effective_config.json"
        cfg.write_bytes(content)
        err = self._one_error_line(
            self._predict(sim_dir, bad_dir, tmp_path / "o"), capsys)
        assert err == f"error[E_CONFIG]: cannot read config {cfg}: {reason}\n"


# ---------------------------------------------------------------------------
# The loader against the row-wise oracle
# ---------------------------------------------------------------------------

LABELS = ("a", "b,c", "d e", "r1c1", 'q"t')
NUMBER_FORMATS = (repr, "{:.3g}".format, " {!r} ".format, "{:e}".format)


def _underscored(value):
    """A number with an underscore between two fraction digits."""
    text = f"{value:.6f}"
    cut = text.index(".") + 3
    return text[:cut] + "_" + text[cut:]


# numbers that Python's float() reads and numpy's C reader does not
# (underscores, non-ASCII digits), and NBSP padding, which both strip
ODD_NUMBER_FORMATS = (
    _underscored,
    lambda value: repr(value).translate(str.maketrans(
        "0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667"
                      "\u0668\u0669")),
    "\xa0{!r}\xa0".format,
)
BAD_VALUES = {
    "non-numeric": ("abc", "", "1.2.3"),
    "non-finite": ("nan", "inf", "-Infinity"),
    "non-positive": ("0", "-2.5"),
    "unknown label": ("zz", "b", " c ", "a\nb", 'q""t'),
    "negative": ("-1",),
}
# kinds that give a row the wrong width; a blank line is a row of none
WIDTH_KINDS = ("extra field", "missing field", "blank line")
# within one column: non-numeric cells first, then non-finite, then
# non-positive
KIND_ORDER = ("non-numeric", "non-finite", "non-positive")
ERROR_LINE = re.compile(r"error\[E_[A-Z]+\]: [^\n]*\n")


@pytest.fixture(scope="module")
def label_graph(tmp_path_factory):
    """A graph whose labels need quoting in a CSV or hold a space."""
    out = tmp_path_factory.mktemp("labels")
    path = out / "graph.tsv"
    path.write_text("a\tb,c\nb,c\td e\nr1c1\nq\"t\n", encoding="utf-8")
    graph = ArealGraph.from_edge_list_file(path)
    assert graph.labels == LABELS
    return out, graph


@st.composite
def clean_csv(draw):
    """(header, body, expand, column kinds, line end) of a dataset CSV
    that is valid but for its string design columns when not
    expanding."""
    n = draw(st.integers(1, 8))
    expand = draw(st.booleans())
    kinds = {"y": "y", "vertex": "vertex"}
    if draw(st.booleans()):
        kinds["exposure"] = "exposure"
    for prefix, k in (("x_", draw(st.integers(0, 3))),
                      ("z_", draw(st.integers(0, 2)))):
        for j in range(k):
            cat = draw(st.booleans()) if expand \
                else draw(st.integers(0, 5)) == 0
            kinds[f"{prefix}{j}"] = "cat" if cat else "num"
    if draw(st.booleans()):
        kinds["note"] = "text"
    cols = draw(st.permutations(list(kinds)))
    formats = draw(st.sampled_from((NUMBER_FORMATS,
                                    NUMBER_FORMATS + ODD_NUMBER_FORMATS)))

    def number(lo, hi):
        fmt = draw(st.sampled_from(formats))
        return fmt(draw(st.floats(lo, hi)))

    def cell(kind):
        if kind == "y":
            return number(0.0, 1e3)
        if kind == "exposure":
            return number(0.01, 100.0)
        if kind == "num":
            return number(-1e6, 1e6)
        if kind == "vertex":
            pad = draw(st.sampled_from(("", " ", "\t")))
            return pad + draw(st.sampled_from(LABELS)) + pad
        if kind == "cat":
            return draw(st.sampled_from(("red", "blue", "green", " red")))
        return draw(st.text(alphabet="ab ,\"'\n", max_size=5))

    body = [[cell(kinds[c]) for c in cols] for _ in range(n)]
    header = [draw(st.sampled_from(("", " "))) + c for c in cols]
    eol = draw(st.sampled_from(("\r\n", "\n")))
    return header, body, expand, {c: kinds[c] for c in cols}, eol


@st.composite
def bad_cells(draw, kinds, n, expand, multi):
    """Injections (kind, column, row, value); only SchemaError kinds when
    several are drawn. A blank line goes before the row, or after the
    last one."""
    targets = [(kind, None) for kind in WIDTH_KINDS]
    for name, kind in kinds.items():
        if kind == "y":
            targets += [("non-numeric", name), ("non-finite", name)]
            if not multi:
                targets.append(("negative", name))
        elif kind == "exposure":
            targets += [("non-numeric", name), ("non-finite", name),
                        ("non-positive", name)]
        elif kind == "vertex":
            targets.append(("unknown label", name))
        elif kind == "num":
            targets.append(("non-finite", name))
            if not (multi and expand):
                targets.append(("non-numeric", name))
    picks = draw(st.lists(st.sampled_from(targets), min_size=2 if multi
                          else 1, max_size=3 if multi else 1))
    return [(kind, name, draw(st.integers(0, n if kind == "blank line"
                                          else n - 1)),
             None if kind in WIDTH_KINDS
             else draw(st.sampled_from(BAD_VALUES[kind])))
            for kind, name in picks]


def _write(path, header, body, injections=(), eol="\r\n", bom=False):
    cols = [h.strip() for h in header]
    body = [list(row) for row in body]
    resized = {}
    for kind, name, row, value in injections:
        if kind in ("extra field", "missing field"):
            resized[row] = kind
        elif kind != "blank line":
            body[row][cols.index(name)] = value
    # after the cells, so that a shortened row still had the cell
    for row, kind in resized.items():
        body[row] = body[row] + ["1"] if kind == "extra field" \
            else body[row][:-1]
    # one blank line per row drawn, inserted from the last
    for row in sorted({inj[2] for inj in injections
                       if inj[0] == "blank line"}, reverse=True):
        body.insert(row, [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\ufeff" if bom else "")
        csv.writer(fh, lineterminator=eol).writerows([header] + body)


def _outcome(loader, path, graph, expand):
    """Loaded arrays and names, or the exception class and message."""
    try:
        data, bn, gn = loader(path, FamilySpec.compound_poisson_gamma(1.5),
                              graph, expand=expand)
    except (SchemaError, DomainError) as exc:
        return type(exc), str(exc)
    return data.y, data.w, data.vertex, data.X, data.Z, bn, gn


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


def _first_reported(injections, header):
    """The injection the column-wise loader reports: row widths first,
    then y, exposure, vertex, the x_ then the z_ columns in header
    order; within a column the kinds in KIND_ORDER, then the row. A
    later injection into the same cell, or a later change of the same
    row's width, replaces an earlier one."""
    cols = [h.strip() for h in header]
    design = ([c for c in cols if c.startswith("x_")]
              + [c for c in cols if c.startswith("z_")])
    rank = {"y": 1, "exposure": 2, "vertex": 3}
    rank.update({c: 4 + i for i, c in enumerate(design)})
    cells = {}
    for inj in injections:
        kind, name, row, _ = inj
        if kind == "blank line":
            cells[(kind, row)] = inj
        else:
            cells[("width", row) if kind in WIDTH_KINDS
                  else (name, row)] = inj

    def key(inj):
        kind, name, row, _ = inj
        if kind in WIDTH_KINDS:
            # a blank line before a row comes before it
            return (0, row, kind != "blank line")
        return (rank[name], KIND_ORDER.index(kind) if kind in KIND_ORDER
                else 0, row)
    return min(cells.values(), key=key)


def _fit_stderr(path, graph_dir, expand, out):
    argv = ["fit", "--data", str(path), "--graph",
            str(graph_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
            "--approx", "saddlepoint", "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv + (["--expand"] if expand else []))
    return code, err.getvalue()


class TestLoaderEquivalence:
    """``load_dataset`` parses with numpy's C reader, or column by column
    for the inputs that reader declines; ``rowwise_load_dataset`` is the
    row-at-a-time loader they replaced."""

    def test_simulated_csv_takes_the_c_reader(self, sim_dir):
        graph = ArealGraph.from_edge_list_file(sim_dir / "graph.tsv")
        spec = FamilySpec.compound_poisson_gamma(1.5)
        path = sim_dir / "data.csv"
        with mock.patch.object(cli, "_load_columnwise",
                               side_effect=AssertionError("declined")):
            got = _outcome(load_dataset, path, graph, False)
        _assert_same(got, _outcome(rowwise_load_dataset, path, graph, False))

    @settings(max_examples=300)
    @given(case=clean_csv(), data=st.data())
    def test_matches_rowwise_oracle(self, label_graph, case, data):
        graph_dir, graph = label_graph
        header, body, expand, kinds, eol = case
        injections = data.draw(st.one_of(
            st.just([]), bad_cells(kinds, len(body), expand, multi=False)))
        path = graph_dir / "one.csv"
        _write(path, header, body, injections, eol, bom=data.draw(
            st.booleans()))
        want = _outcome(rowwise_load_dataset, path, graph, expand)
        _assert_same(_outcome(load_dataset, path, graph, expand), want)
        if isinstance(want[0], type):
            code, err = _fit_stderr(path, graph_dir, expand,
                                    graph_dir / "out")
            assert code != 0 and ERROR_LINE.fullmatch(err)

    @settings(max_examples=200)
    @given(case=clean_csv(), data=st.data())
    def test_several_bad_cells_report_the_first(self, label_graph, case,
                                                data):
        graph_dir, graph = label_graph
        header, body, expand, kinds, eol = case
        injections = data.draw(bad_cells(kinds, len(body), expand,
                                         multi=True))
        path = graph_dir / "several.csv"
        # the oracle's error for the first bad cell alone ...
        _write(path, header, body, [_first_reported(injections, header)],
               eol)
        want = _outcome(rowwise_load_dataset, path, graph, expand)
        assert want[0] is SchemaError
        # ... is the loader's error for all of them
        _write(path, header, body, injections, eol)
        assert _outcome(load_dataset, path, graph, expand) == want
        code, err = _fit_stderr(path, graph_dir, expand, graph_dir / "out")
        assert code == 2 and err == f"error[E_SCHEMA]: {want[1]}\n"


# ---------------------------------------------------------------------------
# Property tests over whole commands
# ---------------------------------------------------------------------------

@st.composite
def fit_options(draw):
    """Flags of a valid ``fit`` on the small instance: the family, the
    index and its grid, the normalizer, the penalty and its multipliers,
    each left unset or drawn."""
    argv = []

    def maybe(flag, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv.extend([flag, value])

    family = draw(st.sampled_from([None, "cpg", "normal"]))
    if family is not None:
        argv.extend(["--family", family])
    if family != "normal":
        maybe("--p", ["1.3", "1.5", "1.7"])
        maybe("--approx", ["series", "saddlepoint"])
        maybe("--p-grid", ["1.3:1.7:0.1", "1.2:1.8:0.2"])
    maybe("--penalty", ["spatial", "spatial+ridge"])
    maybe("--lambda1", ["0", "0.5", "2"])
    maybe("--lambda2", ["0", "1", "3"])
    if draw(st.booleans()):
        argv.append("--expand")
    return argv


class TestConfigRoundTrip:
    """A fit's echoed configuration, fed back through ``--config``,
    reproduces the fit: its coefficients byte for byte, and an echo that
    differs only in ``out``."""

    @settings(max_examples=10)
    @given(flags=fit_options())
    def test_echo_reproduces_the_fit(self, small_sim_dir, flags):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            run_ok(["fit", "--data", str(small_sim_dir / "data.csv"),
                    "--graph", str(small_sim_dir / "graph.tsv"), *flags,
                    "--out", str(first)])
            run_ok(["fit", "--config", str(first / "effective_config.json"),
                    "--out", str(second)])
            assert (first / "coefficients.tsv").read_bytes() == \
                (second / "coefficients.tsv").read_bytes()
            echo1, echo2 = (json.loads((d / "effective_config.json")
                                       .read_text(encoding="utf-8"))
                            for d in (first, second))
            assert echo2.pop("out") == str(second)
            assert echo1.pop("out") == str(first)
            assert echo1 == echo2


GRAPH_FAULTS = ("self-loop", "three-fields", "not-utf8", "foreign-labels")


@st.composite
def bad_graph_files(draw, lattice_lines):
    """(fault, bytes) of an edge list with one fault among comment
    lines, blank lines and labels that no row uses. The fault is a
    self-loop, a line of three or more fields, a byte that is not UTF-8,
    or labels that are all foreign to the data."""
    label = st.text("abcxyz019_", min_size=1, max_size=4)
    lines = list(lattice_lines)
    noise = st.one_of(
        st.just(""), st.just("   "),
        st.builds("# {}".format, st.text(st.characters(
            blacklist_categories=("Cs", "Cc")), max_size=12)),
        st.builds("unused_{}".format, label),
        st.builds("unused_{}\tunused_{}x".format, label, label))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    fault = draw(st.sampled_from(GRAPH_FAULTS))
    if fault == "foreign-labels":
        lines = ["" if not ln or ln.startswith("#") else "\t".join(
            "q" + part for part in ln.split("\t")) for ln in lines]
    else:
        used = [part for ln in lattice_lines for part in ln.split("\t")]
        name = draw(st.sampled_from(used) | label)
        bad = {"self-loop": f"{name}\t{name}",
               "three-fields": "\t".join([name] + draw(st.lists(
                   label, min_size=2, max_size=4))),
               "not-utf8": None}[fault]
        lines.insert(draw(st.integers(0, len(lines))), bad)
    body = "\n".join(ln or "" for ln in lines).encode("utf-8")
    if fault == "not-utf8":
        at = draw(st.integers(0, len(body)))
        junk = draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3("]))
        body = body[:at] + junk + body[at:]
    return fault, body + b"\n"


class TestEdgeListFuzz:
    """Every bad edge list ends ``fit --graph`` in one error line, with a
    nonzero exit, no traceback and no output directory."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_bad_graph_is_one_error_line(self, small_sim_dir, data):
        lattice_lines = [ln for ln in (small_sim_dir / "graph.tsv")
                         .read_text(encoding="utf-8").splitlines()
                         if ln and not ln.startswith("#")]
        fault, body = data.draw(bad_graph_files(lattice_lines))
        with tempfile.TemporaryDirectory() as tmp:
            graph, out = Path(tmp, "graph.tsv"), Path(tmp, "out")
            graph.write_bytes(body)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run_command(["fit", "--data",
                                    str(small_sim_dir / "data.csv"),
                                    "--graph", str(graph), "--out",
                                    str(out)])
            err = stderr.getvalue()
            assert code != 0, fault
            assert ERROR_LINE.fullmatch(err), (fault, err)
            assert "Traceback" not in err
            assert not out.exists()


class TestTableRoundTrip:
    """The README's 17-digit rule: every double a table holds reads back
    as the same double."""

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=20))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     0.1, 1.0 / 3.0])
    def test_finite_doubles_read_back_bit_for_bit(self, values):
        header = ("name", "value")
        names = [f"v{i}" for i in range(len(values))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.tsv")
            cli._write_table(path, header, names, np.array(values))
            rows = list(cli._read_table(path, header, "test"))
        assert [fields[0] for _, fields in rows] == names
        assert [lineno for lineno, _ in rows] == \
            list(range(2, len(values) + 2))
        got = np.array([float(fields[1]) for _, fields in rows])
        assert np.array_equal(got.view(np.uint64),
                              np.array(values).view(np.uint64))


class TestParserReuse:
    """Commands share one parser; a command that fails to parse, one
    that runs and ``--help`` each give, one after another in a process,
    what they give in a fresh process."""

    @staticmethod
    def _fresh(argv, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "twdglm.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_sequence_matches_fresh_processes(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        sim = ["simulate", "--n", "200", "--lattice", "3x3", "--seed", "3",
               "--p", "1.5", "--out"]
        commands = [["fit", "--bogus-flag", "1"],
                    sim + [str(tmp_path / "here")],
                    ["--help"]]
        here = []
        for argv in commands:
            code = run_command(argv)
            captured = capsys.readouterr()
            here.append((code, captured.out, captured.err))
        assert cli._build_parser() is cli._build_parser()
        here_dir, fresh_dir = tmp_path / "here", tmp_path / "fresh"
        fresh = [self._fresh(commands[0], tmp_path),
                 self._fresh(sim + [str(fresh_dir)], tmp_path),
                 self._fresh(commands[2], tmp_path)]
        assert [h[0] for h in here] == [2, 0, 0]
        assert here[0] == fresh[0]
        assert here[2] == fresh[2]
        # the run's own --out is the one difference in its output
        assert here[1][0] == fresh[1][0]
        assert here[1][1].replace(str(here_dir), "OUT") == \
            fresh[1][1].replace(str(fresh_dir), "OUT")
        assert here[1][2] == fresh[1][2]
        names = sorted(f.name for f in here_dir.iterdir())
        assert names == sorted(f.name for f in fresh_dir.iterdir())
        for name in names:
            a = (here_dir / name).read_bytes()
            b = (fresh_dir / name).read_bytes()
            if name == "effective_config.json":
                a, b = json.loads(a), json.loads(b)
                assert (a.pop("out"), b.pop("out")) == (str(here_dir),
                                                        str(fresh_dir))
            assert a == b, name


# ---------------------------------------------------------------------------
# The option table
# ---------------------------------------------------------------------------

def _subcommand_options():
    """{subcommand: its option actions other than --help} of the
    parser."""
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()}


def _readme_flag_table():
    """{subcommand: flags} of the per-subcommand flag table in README
    "Command line"."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("| Flag |"))
    commands = [c.strip() for c in lines[start].strip("|").split("|")][2:]
    table = {command: set() for command in commands}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, _, *marks = (c.strip() for c in line.strip("|").split("|"))
        for command, mark in zip(commands, marks):
            if mark:
                table[command].add(flag.strip("`"))
    return table


class _ReadRecorder(dict):
    """Options that record which keys a command reads."""

    def __init__(self, opts):
        super().__init__(opts)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestOptionTable:
    """Each subcommand takes only the options it reads, a bad option
    ends in one ``error[E_CONFIG]`` line, and the echo holds the
    command's options."""

    def test_subcommands_take_the_readme_flags(self):
        flags = {command: {a.option_strings[0] for a in actions}
                 for command, actions in _subcommand_options().items()}
        assert flags == _readme_flag_table()
        assert {c: len(f) for c, f in flags.items()} == {
            "simulate": 9, "fit": 14, "tune": 15, "predict": 11, "report": 4}

    def test_every_declared_option_is_read(self, sim_dir, tmp_path,
                                           monkeypatch):
        reads = {}
        effective, echo = cli._effective_options, cli._echo_config

        def echo_after_reads(out, command, opts):
            reads[command] = set(opts.read)
            echo(out, command, opts)

        monkeypatch.setattr(cli, "_effective_options",
                            lambda args: _ReadRecorder(effective(args)))
        monkeypatch.setattr(cli, "_echo_config", echo_after_reads)
        model = ["--data", str(sim_dir / "data.csv"), "--graph",
                 str(sim_dir / "graph.tsv")]
        fit_out = tmp_path / "fit"
        commands = {
            "simulate": ["--n", "200", "--lattice", "3x3"],
            "fit": [*model, "--approx", "saddlepoint"],
            "tune": [*model, "--approx", "saddlepoint",
                     "--grid=-1:1:2,-1:1:2"],
            "predict": [*model, "--fit-dir", str(fit_out)],
            "report": ["--fit-dir", str(fit_out), "--oracle",
                       str(sim_dir / "oracle.tsv")],
        }
        for command, argv in commands.items():
            out = fit_out if command == "fit" else tmp_path / command
            run_ok([command, *argv, "--out", str(out)])
            echoed = json.loads((out / "effective_config.json").read_text())
            declared = {a.dest for a in _subcommand_options()[command]}
            declared.discard("config")
            assert declared <= reads[command], command
            assert set(echoed) == declared | {"command"}, command

    @pytest.mark.parametrize("argv", [
        ["fit", "--bogus-flag", "1"],
        ["fit", "--seed", "1"],
        ["predict", "--approx", "series"],
        ["report", "--lambda1", "5"],
        ["fit", "--lambda1", "abc"],
        ["fit", "--penalty", "ridge"],
        ["simulate", "--n", "1.5"],
        [],
    ], ids=["unknown-flag", "flag-of-fit-and-tune", "dropped-predict-flag",
            "dropped-report-flag", "bad-number", "bad-choice", "bad-integer",
            "missing-subcommand"])
    def test_bad_flag_is_one_config_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ERROR_LINE.fullmatch(err) and err.startswith(
            "error[E_CONFIG]: twdglm"), err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("lambda1", "abc"), ("lambda1", [1]), ("p", "x"),
        ("approx", "bogus"), ("disp_link", 5), ("expand", "no"),
        ("seed", 1.5), ("n", True),
    ])
    def test_bad_config_value_is_one_config_line(self, sim_dir, tmp_path,
                                                 capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "out"
        code = run_command(["fit", "--config", str(cfg), "--data",
                            str(sim_dir / "data.csv"), "--graph",
                            str(sim_dir / "graph.tsv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and ERROR_LINE.fullmatch(err), err
        assert err.startswith(f"error[E_CONFIG]: {cfg}: config key {key!r} "
                              "expects ")
        assert not out.exists()

    @pytest.mark.parametrize("cfg_json, message", [
        ({"lamda1": 2}, "unknown config key 'lamda1'"),
        ({"max_block": 25}, "config key 'max_block' is no longer supported"),
    ], ids=["misspelt-key", "retired-key"])
    def test_bad_config_key_names_the_file(self, sim_dir, tmp_path, capsys,
                                           cfg_json, message):
        cfg = tmp_path / "u.json"
        cfg.write_text(json.dumps(cfg_json), encoding="utf-8")
        out = tmp_path / "out"
        code = run_command(["fit", "--config", str(cfg), "--data",
                            str(sim_dir / "data.csv"), "--graph",
                            str(sim_dir / "graph.tsv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and ERROR_LINE.fullmatch(err), err
        assert err.startswith(f"error[E_CONFIG]: {cfg}: {message}"), err
        assert not out.exists()

    def test_bad_fit_dir_value_is_one_config_line(self, sim_dir, tmp_path,
                                                  capsys):
        fit_dir = tmp_path / "fit"
        run_ok(cpg_argv("fit", sim_dir, "--approx", "saddlepoint", "--out",
                        str(fit_dir)))
        cfg = fit_dir / "effective_config.json"
        cfg.write_text(json.dumps({"family": 5}), encoding="utf-8")
        out = tmp_path / "out"
        code = run_command(["predict", "--fit-dir", str(fit_dir), "--data",
                            str(sim_dir / "data.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err == (f"error[E_CONFIG]: {cfg}: config key "
                                     "'family' expects a string, got 5\n")
        assert not out.exists()
