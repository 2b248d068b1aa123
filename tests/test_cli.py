"""Batch front end: round trips, schema errors, reproducibility."""

import contextlib
import csv
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rowwise_load_dataset
from twdglm.cli import load_dataset, read_coefficients, run_command
from twdglm.errors import DomainError, SchemaError
from twdglm.family import FamilySpec
from twdglm.graph import ArealGraph


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


class TestPipeline:
    def test_fit_then_report(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        run_ok(["fit", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
                "--approx", "saddlepoint", "--lambda1", "1", "--lambda2",
                "1", "--out", str(fit_out)])
        for name in ("coefficients.tsv", "wald.tsv", "trace.tsv",
                     "summary.tsv", "effective_config.json"):
            assert (fit_out / name).exists()
        rep_out = tmp_path / "rep"
        run_ok(["report", "--fit-dir", str(fit_out), "--oracle",
                str(sim_dir / "oracle.tsv"), "--out", str(rep_out)])
        lines = (rep_out / "alpha_vs_pattern.tsv").read_text().strip()
        assert lines.startswith("vertex\talpha_hat\talpha_oracle")
        assert len(lines.split("\n")) == 10

    def test_alpha_summary_in_fit_summary(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit2"
        run_ok(["fit", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
                "--approx", "saddlepoint", "--out", str(fit_out)])
        summary = dict(
            line.split("\t") for line in
            (fit_out / "summary.tsv").read_text().strip().split("\n")[1:])
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

    def test_tune_then_predict_consistency(self, sim_dir, tmp_path):
        tune_out = tmp_path / "tune"
        run_ok(["tune", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
                "--approx", "saddlepoint", "--grid=-2:2:3,-2:2:3",
                "--seed", "11", "--out", str(tune_out)])
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
        argv = ["fit", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p",
                "1.5", "--approx", "saddlepoint", "--lambda1", "0.5",
                "--lambda2", "2"]
        run_ok(argv + ["--out", str(out1)])
        run_ok(argv + ["--out", str(out2)])
        c1 = (out1 / "coefficients.tsv").read_bytes()
        assert c1 == (out2 / "coefficients.tsv").read_bytes()
        # echoed config reproduces the run without any explicit flags
        run_ok(["fit", "--config", str(out1 / "effective_config.json"),
                "--out", str(out3)])
        assert c1 == (out3 / "coefficients.tsv").read_bytes()

    def test_old_config_with_retired_keys(self, sim_dir, tmp_path, capsys):
        out1 = tmp_path / "new"
        run_ok(["fit", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
                "--approx", "saddlepoint", "--out", str(out1)])
        cfg = json.loads((out1 / "effective_config.json").read_text())
        assert "threads" not in cfg and "max_block" not in cfg
        # configs echoed before the keys were retired still load
        cfg.update({"threads": 1, "max_block": None})
        old = tmp_path / "old.json"
        old.write_text(json.dumps(cfg), encoding="utf-8")
        run_ok(["fit", "--config", str(old), "--out", str(tmp_path / "o")])
        assert (out1 / "coefficients.tsv").read_bytes() == \
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
        run_ok(["fit", "--data", str(sim_dir / "data.csv"), "--graph",
                str(sim_dir / "graph.tsv"), "--family", "cpg", "--p", "1.5",
                "--approx", "saddlepoint", "--lambda1", "0", "--lambda2",
                lambda2, "--out", str(out)])
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
    ], ids=["simulate", "fit", "tune", "predict", "report"])
    def test_invalid_options_create_no_outdir(self, sim_dir, tmp_path,
                                              capsys, argv, code):
        out = tmp_path / "out"
        argv = [a.format(sim=sim_dir) for a in argv] + ["--out", str(out)]
        assert run_command(argv) != 0
        assert capsys.readouterr().err.startswith(f"error[{code}]")
        assert not out.exists()

    def test_missing_data_file_is_io_error(self, sim_dir, tmp_path, capsys):
        code = run_command(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--graph",
             str(sim_dir / "graph.tsv"), "--family", "cpg", "--out",
             str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.err.startswith("error[")


# ---------------------------------------------------------------------------
# Column-wise loader against the row-wise oracle
# ---------------------------------------------------------------------------

LABELS = ("a", "b,c", "d e", "r1c1")
NUMBER_FORMATS = (repr, "{:.3g}".format, " {!r} ".format, "{:e}".format)
BAD_VALUES = {
    "non-numeric": ("abc", "", "1.2.3"),
    "non-finite": ("nan", "inf", "-Infinity"),
    "non-positive": ("0", "-2.5"),
    "unknown label": ("zz", "b", " c "),
    "negative": ("-1",),
}
# within one column: non-numeric cells first, then non-finite, then
# non-positive
KIND_ORDER = ("non-numeric", "non-finite", "non-positive")
ERROR_LINE = re.compile(r"error\[E_[A-Z]+\]: [^\n]*\n")


@pytest.fixture(scope="module")
def label_graph(tmp_path_factory):
    """A graph whose labels need quoting in a CSV or hold a space."""
    out = tmp_path_factory.mktemp("labels")
    path = out / "graph.tsv"
    path.write_text("a\tb,c\nb,c\td e\nr1c1\n", encoding="utf-8")
    graph = ArealGraph.from_edge_list_file(path)
    assert graph.labels == LABELS
    return out, graph


@st.composite
def clean_csv(draw):
    """(header, body, expand, column kinds) of a valid dataset CSV."""
    n = draw(st.integers(1, 8))
    expand = draw(st.booleans())
    kinds = {"y": "y", "vertex": "vertex"}
    if draw(st.booleans()):
        kinds["exposure"] = "exposure"
    for prefix, k in (("x_", draw(st.integers(0, 3))),
                      ("z_", draw(st.integers(0, 2)))):
        for j in range(k):
            cat = expand and draw(st.booleans())
            kinds[f"{prefix}{j}"] = "cat" if cat else "num"
    if draw(st.booleans()):
        kinds["note"] = "text"
    cols = draw(st.permutations(list(kinds)))

    def number(lo, hi):
        fmt = draw(st.sampled_from(NUMBER_FORMATS))
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
        return draw(st.text(alphabet="ab ,\"'", max_size=5))

    body = [[cell(kinds[c]) for c in cols] for _ in range(n)]
    header = [draw(st.sampled_from(("", " "))) + c for c in cols]
    return header, body, expand, {c: kinds[c] for c in cols}


@st.composite
def bad_cells(draw, kinds, n, expand, multi):
    """Injections (kind, column, row, value); only SchemaError kinds when
    several are drawn."""
    targets = [("ragged", None)]
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
    return [(kind, name, draw(st.integers(0, n - 1)),
             None if kind == "ragged"
             else draw(st.sampled_from(BAD_VALUES[kind])))
            for kind, name in picks]


def _write(path, header, body, injections=()):
    cols = [h.strip() for h in header]
    body = [list(row) for row in body]
    # cells first, so that a shortened row still has the cell
    for kind, name, row, value in sorted(injections,
                                         key=lambda inj: inj[0] == "ragged"):
        if kind == "ragged":
            width = len(cols) - 1 if row % 2 else len(cols) + 1
            body[row] = (body[row] + ["1"])[:width]
        else:
            body[row][cols.index(name)] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + body)


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
    later injection into the same cell replaces an earlier one."""
    cols = [h.strip() for h in header]
    design = ([c for c in cols if c.startswith("x_")]
              + [c for c in cols if c.startswith("z_")])
    rank = {"y": 1, "exposure": 2, "vertex": 3}
    rank.update({c: 4 + i for i, c in enumerate(design)})
    cells = {}
    for inj in injections:
        kind, name, row, _ = inj
        cells[("ragged", row) if kind == "ragged" else (name, row)] = inj

    def key(inj):
        kind, name, row, _ = inj
        if kind == "ragged":
            return (0, 0, row)
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
    """``load_dataset`` reads column by column; ``rowwise_load_dataset``
    is the row-at-a-time loader it replaced."""

    @settings(max_examples=300)
    @given(case=clean_csv(), data=st.data())
    def test_matches_rowwise_oracle(self, label_graph, case, data):
        graph_dir, graph = label_graph
        header, body, expand, kinds = case
        injections = data.draw(st.one_of(
            st.just([]), bad_cells(kinds, len(body), expand, multi=False)))
        path = graph_dir / "one.csv"
        _write(path, header, body, injections)
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
        header, body, expand, kinds = case
        injections = data.draw(bad_cells(kinds, len(body), expand,
                                         multi=True))
        path = graph_dir / "several.csv"
        # the oracle's error for the first bad cell alone ...
        _write(path, header, body, [_first_reported(injections, header)])
        want = _outcome(rowwise_load_dataset, path, graph, expand)
        assert want[0] is SchemaError
        # ... is the column-wise loader's error for all of them
        _write(path, header, body, injections)
        assert _outcome(load_dataset, path, graph, expand) == want
        code, err = _fit_stderr(path, graph_dir, expand, graph_dir / "out")
        assert code == 2 and err == f"error[E_SCHEMA]: {want[1]}\n"
