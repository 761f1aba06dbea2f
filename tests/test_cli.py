import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from elastopoint import cli
from elastopoint.assembly import LameParams, PointLoadSet
from elastopoint.cli import (
    main,
    parse_loads_file,
    write_csv_report,
    write_vtk_field,
)
from elastopoint.convergence import ConvergenceReport, ReportRow
from elastopoint.mesh import build_unit_box_mesh

from oracles import write_vtk_field_per_line


def test_parse_loads_file_valid(tmp_path):
    p = tmp_path / "loads.txt"
    p.write_text(
        "# leading comment\n"
        "\n"
        "point 0.5 0.5 1 0\n"
        "point 2.5e-1 0.75 -1.0 0.25   # trailing comment\n"
    )
    loads = parse_loads_file(str(p), 2)
    assert len(loads) == 2
    assert np.allclose(loads.points, [[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(loads.forces, [[1.0, 0.0], [-1.0, 0.25]])


def test_parse_loads_file_3d(tmp_path):
    p = tmp_path / "loads.txt"
    p.write_text("point 0.25 0.25 0.25 0 0 -1\n")
    loads = parse_loads_file(str(p), 3)
    assert loads.dim == 3
    assert np.allclose(loads.forces, [[0.0, 0.0, -1.0]])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("load 0.5 0.5 1 0\n", "expected 'point'"),
        ("point 0.5 0.5 1\n", "expected 4 numbers"),
        ("point 0.5 abc 1 0\n", "malformed number"),
        ("point 1.0 0.5 1 0\n", "strictly inside"),
        ("point 0.5 0.0 1 0\n", "strictly inside"),
        ("# nothing here\n", "no load records"),
    ],
)
def test_parse_loads_file_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(ValueError) as exc:
        parse_loads_file(str(p), 2)
    assert fragment in str(exc.value)
    if fragment != "no load records":
        assert "%s:1" % p in str(exc.value)


def test_loads_file_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    pts = 0.05 + 0.9 * rng.random((5, 3))
    forces = rng.standard_normal((5, 3))
    loads = PointLoadSet(pts, forces)
    p = tmp_path / "rt.txt"
    p.write_text("".join(
        "point %s\n" % " ".join("%.17g" % v for v in np.concatenate(row))
        for row in zip(loads.points, loads.forces)))
    back = parse_loads_file(str(p), 3)
    assert np.array_equal(back.points, loads.points)
    assert np.array_equal(back.forces, loads.forces)


def test_write_csv_report_format(tmp_path):
    rows = (
        ReportRow(level=1, n=4, h=math.sqrt(2) / 4, ndof=18,
                  error_l2=1.0 / 3.0, eoc=None),
        ReportRow(level=2, n=8, h=math.sqrt(2) / 8, ndof=98,
                  error_l2=1.0 / 12.0, eoc=2.0),
    )
    report = ConvergenceReport(dim=2, params=LameParams(1.0, 1.0),
                               load_description="test",
                               reference_n=32, rows=rows)
    p = tmp_path / "report.csv"
    write_csv_report(report, str(p))
    raw = p.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "level,n,h,ndof,error_l2,eoc"
    assert lines[1] == "1,4,0.353553390593,18,0.333333333333,"
    assert lines[2] == "2,8,0.176776695297,98,0.0833333333333,2"
    assert lines[3] == ""


def test_write_vtk_2d(tmp_path):
    mesh = build_unit_box_mesh(2, 1)
    p = tmp_path / "out.vtk"
    write_vtk_field(mesh, np.zeros((4, 2)), str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 4 double"
    pts = [line.split() for line in lines[5:9]]
    assert all(len(row) == 3 and row[2] == "0" for row in pts)
    assert lines[9] == "CELLS 2 8"
    for cell_line in lines[10:12]:
        toks = cell_line.split()
        assert toks[0] == "3"
        assert all(0 <= int(t) < 4 for t in toks[1:])
    assert lines[12] == "CELL_TYPES 2"
    assert lines[13] == "5" and lines[14] == "5"
    assert lines[15] == "POINT_DATA 4"
    assert lines[16] == "VECTORS displacement double"
    assert all(line == "0 0 0" for line in lines[17:21])


def test_write_vtk_3d_cell_types(tmp_path):
    mesh = build_unit_box_mesh(3, 1)
    p = tmp_path / "out.vtk"
    field = np.ones((mesh.num_vertices, 3))
    write_vtk_field(mesh, field, str(p))
    text = p.read_text()
    assert "CELLS 6 30" in text
    lines = text.splitlines()
    start = lines.index("CELL_TYPES 6") + 1
    assert lines[start:start + 6] == ["10"] * 6
    assert lines[lines.index("VECTORS displacement double") + 1] == "1 1 1"


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 5), (2, 128), (3, 1), (3, 3),
                                   (3, 16)])
def test_write_vtk_matches_per_line_writer(tmp_path, dim, n):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(7)
    field = rng.standard_normal((mesh.num_vertices, dim))
    field *= 10.0 ** rng.integers(-20, 20, size=field.shape)
    field[0] = 0.0
    field[1, 0] = -0.0
    field[2, 0] = 1.0 / 3.0
    got = tmp_path / "block.vtk"
    ref = tmp_path / "lines.vtk"
    write_vtk_field(mesh, field, str(got))
    write_vtk_field_per_line(mesh, field, str(ref))
    assert got.read_bytes() == ref.read_bytes()


# blocks of 1 and 7 lines split every section, with a short last block
@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_write_vtk_in_short_blocks_matches_per_line_writer(
        tmp_path, monkeypatch, dim, n, block):
    monkeypatch.setattr(cli, "_VTK_BLOCK_LINES", block)
    mesh = build_unit_box_mesh(dim, n)
    field = np.random.default_rng(block).standard_normal(
        (mesh.num_vertices, dim))
    got = tmp_path / "block.vtk"
    ref = tmp_path / "lines.vtk"
    write_vtk_field(mesh, field, str(got))
    write_vtk_field_per_line(mesh, field, str(ref))
    assert got.read_bytes() == ref.read_bytes()


# the tracemalloc peak of a 3D n=16 write (24,576 cells): 1.64 MB when
# the write built the whole int64 cell table, 0.98 MB with the cells
# made one block of cubes at a time
VTK_PEAK_BYTES_3D_16 = 1_200_000


def test_write_vtk_builds_no_cell_table(tmp_path):
    mesh = build_unit_box_mesh(3, 16)
    field = np.zeros((mesh.num_vertices, 3))
    tracemalloc.start()
    try:
        write_vtk_field(mesh, field, str(tmp_path / "zero.vtk"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < VTK_PEAK_BYTES_3D_16


def test_write_vtk_validates_shape(tmp_path):
    mesh = build_unit_box_mesh(2, 2)
    with pytest.raises(ValueError):
        write_vtk_field(mesh, np.zeros((3, 2)), str(tmp_path / "x.vtk"))


def test_converge_manufactured(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = main(["converge", "--dim", "2", "--levels", "4", "8",
               "--manufactured", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote %s" % out in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "level,n,h,ndof,error_l2,eoc"
    assert len(lines) == 3
    assert lines[1].endswith(",")
    last_eoc = float(lines[2].rsplit(",", 1)[1])
    assert 1.8 <= last_eoc <= 2.1


def test_converge_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["converge", "--dim", "2", "--levels", "4", "8", "--manufactured"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = pathlib.Path(__file__).with_name("golden")


# the benchmark's point-load studies at its seed-0 load and at a load off
# the lattice; the golden files hold their CSVs as the slab formula of
# the nested error and the plane-padded solve wrote them, so a layout or
# error formula that moves one printed digit fails here
@pytest.mark.parametrize("name,dim,levels,load", [
    ("study3d_seed0", 3, [4, 8], "0.5 0.5 0.5 0 0 1"),
    ("study3d_off", 3, [4, 8], "0.37 0.61 0.43 0 0 1"),
    ("study2d_seed0", 2, [4, 8, 16, 32], "0.5 0.5 1 0"),
    ("study2d_off", 2, [4, 8, 16, 32], "0.37 0.61 1 0"),
])
def test_point_load_studies_write_the_golden_csv_bytes(tmp_path, name, dim,
                                                       levels, load):
    loads = tmp_path / "loads.txt"
    loads.write_text("point %s\n" % load)
    out = tmp_path / "study.csv"
    argv = ["converge", "--dim", str(dim), "--levels", *map(str, levels),
            "--ref-extra", "2", "--loads", str(loads), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / (name + ".csv")).read_bytes()


# the diagnostics at weight centres off the lattice (Korn also
# unweighted): the CSVs of korn and infsup-demo and the stdout of a2, as
# the pencil search and the exact one-centre ball means print them
@pytest.mark.parametrize("name,argv", [
    ("korn2d.csv", ["korn", "--dim", "2", "--levels", "8", "16", "32"]),
    ("korn3d_off.csv", ["korn", "--dim", "3", "--levels", "4", "8",
                        "--alpha", "1.0", "--center", "0.37", "0.61",
                        "0.43"]),
    ("infsup_off.csv", ["infsup-demo", "--dim", "2", "--levels", "4", "8",
                        "12", "--alpha", "1.0", "--center", "0.37",
                        "0.61"]),
    ("a2_2d_off.txt", ["a2", "--dim", "2", "--alpha", "1.0", "--center",
                       "0.37", "0.61"]),
    ("a2_3d_off.txt", ["a2", "--dim", "3", "--alpha", "-1.5", "--center",
                       "0.37", "0.61", "0.43"]),
])
def test_diagnostics_write_the_golden_bytes(tmp_path, capsys, name, argv):
    out = tmp_path / name
    if name.endswith(".csv"):
        assert main(argv + ["--out", str(out)]) == 0
        got = out.read_bytes()
    else:
        assert main(argv) == 0
        got = capsys.readouterr().out.encode()
    assert got == (GOLDEN / name).read_bytes()


def test_every_traced_name_resolves():
    # the benchmark's tracer looks up each (module, name) of its LAYERS
    # on elastopoint.<module>, so a traced function that is removed or
    # renamed breaks every traced benchmark run
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, name in tracer.LAYERS:
        owner = importlib.import_module("elastopoint." + module)
        assert callable(getattr(owner, name, None)), (module, name)


def test_converge_with_loads_file(tmp_path):
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.5 0.5 1 0\n")
    out = tmp_path / "study.csv"
    rc = main(["converge", "--dim", "2", "--levels", "4", "8",
               "--loads", str(loads), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[1] < errs[0]


def test_converge_errors(tmp_path, capsys):
    # --out is mandatory
    rc = main(["converge", "--dim", "2", "--levels", "4", "8",
               "--manufactured"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # manufactured benchmark is 2d-only
    rc = main(["converge", "--dim", "3", "--levels", "4", "8",
               "--manufactured", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    # loads and manufactured are exclusive
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.5 0.5 1 0\n")
    rc = main(["converge", "--dim", "2", "--levels", "4", "8",
               "--manufactured", "--loads", str(loads),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    # non-doubling levels
    rc = main(["converge", "--dim", "2", "--levels", "4", "9",
               "--manufactured", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    # missing loads file
    rc = main(["converge", "--dim", "2", "--levels", "4", "8",
               "--loads", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_solve_writes_vtk(tmp_path, capsys):
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.5 0.5 1 0\n")
    out = tmp_path / "field.vtk"
    rc = main(["solve", "--dim", "2", "--levels", "8",
               "--loads", str(loads), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "iterations=" in captured.out
    assert out.exists()
    text = out.read_text()
    assert "POINTS 81 double" in text
    assert "VECTORS displacement double" in text


def test_solve_requires_single_level(tmp_path, capsys):
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.5 0.5 1 0\n")
    rc = main(["solve", "--dim", "2", "--levels", "4", "8",
               "--loads", str(loads)])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("record,flags,fragment", [
    ("point 0.4 0.55 nan 0\n", [], "forces must be finite"),
    ("point 0.4 0.55 1 inf\n", [], "forces must be finite"),
    ("point 0.4 0.55 1 0\n", ["--mu", "inf"], "positive and finite"),
    ("point 0.4 0.55 1 0\n", ["--lambda", "nan"], "positive and finite"),
    # finite forces whose sum at a vertex overflows to inf: one of the
    # located cell's barycentric weights is at least 1/3
    ("point 0.4 0.55 1.7e308 0\n" * 4, [], "right side must be finite"),
])
def test_solve_refuses_non_finite_input(tmp_path, capsys, record, flags,
                                        fragment):
    loads = tmp_path / "loads.txt"
    loads.write_text(record)
    rc = main(["solve", "--dim", "2", "--levels", "63",
               "--loads", str(loads)] + flags)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert fragment in captured.err


def test_korn_command(tmp_path, capsys):
    out = tmp_path / "korn.csv"
    rc = main(["korn", "--dim", "2", "--levels", "4", "8",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,h,ndof,lambda_min,korn_constant"
    assert len(lines) == 3
    for line in lines[1:]:
        toks = line.split(",")
        lam = float(toks[3])
        ch = float(toks[4])
        assert 0.5 - 1e-12 <= lam <= 1.0 + 1e-12
        # both columns carry 12 significant digits, so the identity
        # ch = lam^(-1/2) only survives to ~1e-11
        assert abs(ch - 1.0 / math.sqrt(lam)) < 1e-10


def test_infsup_demo_command(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    rc = main(["infsup-demo", "--dim", "2", "--levels", "2", "4",
               "--alpha", "1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,s,alpha_A_kernel,alpha_A_full,beta_B,beta_C,"
                        "injective_on_kernels")
    assert len(lines) == 3
    for line in lines[1:]:
        toks = line.split(",")
        assert float(toks[1]) == 0.5
        ak, af = float(toks[2]), float(toks[3])
        assert ak <= af + 1e-10
        assert toks[6] in ("0", "1")


def test_infsup_demo_refuses_oversized_level(tmp_path, capsys):
    # 3D n=32: the banded pencil holds one 2.1 GB array, and the
    # estimate charges three
    out = tmp_path / "demo.csv"
    rc = main(["infsup-demo", "--dim", "3", "--levels", "32", "--alpha",
               "1.0", "--center", "0.5", "0.5", "0.5", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "n=32" in captured.err and "MB" in captured.err
    assert captured.out == ""
    assert not out.exists()


def _run_traced(argv):
    """main(argv) under tracemalloc; returns (exit code, peak bytes)."""
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, peak


def test_infsup_demo_checks_every_level_first(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    rc, peak = _run_traced(["infsup-demo", "--dim", "3", "--levels", "4",
                            "32", "--alpha", "1.0", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "n=4" not in captured.out
    assert captured.out == ""
    assert "n=32" in captured.err
    assert not out.exists()
    assert peak < 2**20
    # a level without interior vertices is refused before the first row
    rc = main(["infsup-demo", "--dim", "2", "--levels", "8", "1",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no interior vertices" in captured.err
    assert not out.exists()


def test_korn_refuses_oversized_level(tmp_path, capsys):
    out = tmp_path / "korn.csv"
    rc = main(["korn", "--dim", "3", "--levels", "32", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "n=32" in captured.err and "MB" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_korn_checks_every_level_first(tmp_path, capsys):
    out = tmp_path / "korn.csv"
    rc, peak = _run_traced(["korn", "--dim", "3", "--levels", "4", "32",
                            "--alpha", "1.0", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=32" in captured.err
    assert not out.exists()
    assert peak < 2**20
    # a level without interior vertices is refused before the first row
    rc = main(["korn", "--dim", "2", "--levels", "8", "1", "--out",
               str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no interior vertices" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["a2", "--dim", "2", "--alpha", "1.0"],
    ["korn", "--dim", "2", "--levels", "4", "--alpha", "1.0"],
    ["infsup-demo", "--dim", "2", "--levels", "4", "--alpha", "1.0"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("center", [["nan", "0.5"], ["0.5", "inf"]],
                         ids=["nan", "inf"])
def test_non_finite_center_is_named(argv, center, capsys):
    rc = main(argv + ["--center"] + center)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "center" in captured.err
    assert "[%s, %s]" % tuple(center) in captured.err


def test_infsup_demo_rejects_multiple_centers(tmp_path, capsys):
    rc = main(["infsup-demo", "--dim", "2", "--levels", "2",
               "--alpha", "1.0", "--center", "0.3", "0.3",
               "--center", "0.6", "0.6"])
    assert rc == 1
    assert "single --center" in capsys.readouterr().err


def test_a2_command(capsys):
    rc = main(["a2", "--dim", "2", "--alpha", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a2 characteristic" in out
    rc = main(["a2", "--dim", "2", "--alpha", "0"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.rsplit(" ", 1)[1] == "1"


def test_a2_estimate_does_not_depend_on_the_order_of_the_centers(capsys):
    # the balls around every center are probed, not those of the first
    outs = []
    for first, second in ((["0.3", "0.3"], ["0.7", "0.7"]),
                          (["0.7", "0.7"], ["0.3", "0.3"])):
        assert main(["a2", "--dim", "2", "--alpha", "1.0",
                     "--center", *first, "--center", *second]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1] == "alpha=1 centers=2 balls=100"


def test_a2_requires_alpha(capsys):
    rc = main(["a2", "--dim", "2"])
    assert rc == 1
    assert "--alpha is required" in capsys.readouterr().err


def test_center_arity_checked(capsys):
    rc = main(["a2", "--dim", "3", "--alpha", "1.0",
               "--center", "0.5", "0.5"])
    assert rc == 1
    assert "--center needs 3 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["korn", "infsup-demo"])
def test_center_without_alpha_is_an_error(command, tmp_path, capsys):
    # an unweighted run would ignore the center
    out = tmp_path / "out.csv"
    rc = main([command, "--dim", "2", "--levels", "4", "--center", "0.3",
               "0.3", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--center" in captured.err and "--alpha" in captured.err
    assert not out.exists()


def test_argparse_rejects_unknown_usage():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--dim", "2"])
    with pytest.raises(SystemExit):
        main(["converge", "--levels", "4"])  # --dim missing
    with pytest.raises(SystemExit):
        main([])


def test_consecutive_main_calls_print_what_fresh_processes_print(
        tmp_path, monkeypatch, capsys):
    # one parser serves every main call of a process; a usage error
    # (exit 2) in between leaves it as it was
    calls = [["converge", "--dim", "2", "--levels", "4", "8",
              "--manufactured", "--out", "study.csv"],
             ["korn", "--dim", "2", "--levels", "4", "--lambda", "5"],
             ["korn", "--dim", "2", "--levels", "4", "8", "--out",
              "korn.csv"]]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    want = [subprocess.run([sys.executable, "-m", "elastopoint.cli"] + argv,
                           cwd=fresh, env=env, capture_output=True,
                           text=True)
            for argv in calls]
    assert [p.returncode for p in want] == [0, 2, 0]

    here = tmp_path / "in_process"
    here.mkdir()
    monkeypatch.chdir(here)
    got = []
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        got.append((rc, capsys.readouterr()))
    assert [rc for rc, _ in got] == [0, 2, 0]
    assert [c.out for _, c in got] == [p.stdout for p in want]
    assert [c.err for _, c in got] == [p.stderr for p in want]
    for name in ("study.csv", "korn.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


# the flags each subcommand declares; every other flag is a usage error
SUBCOMMAND_FLAGS = {
    "converge": {"--dim", "--levels", "--mu", "--lambda", "--tol", "--out",
                 "--loads", "--manufactured", "--ref-extra"},
    "solve": {"--dim", "--levels", "--mu", "--lambda", "--tol", "--out",
              "--loads"},
    "korn": {"--dim", "--levels", "--alpha", "--center", "--out"},
    "infsup-demo": {"--dim", "--levels", "--alpha", "--center", "--out"},
    "a2": {"--dim", "--alpha", "--center"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_only_the_flags_the_handler_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == SUBCOMMAND_FLAGS[command] | {"--help"}


@pytest.mark.parametrize("argv", [
    ["converge", "--dim", "2", "--levels", "4", "8", "--manufactured",
     "--out", "x.csv", "--alpha", "1.0"],
    ["solve", "--dim", "2", "--levels", "8", "--loads", "loads.txt",
     "--center", "0.5", "0.5"],
    ["korn", "--dim", "2", "--levels", "4", "--lambda", "5"],
    ["infsup-demo", "--dim", "2", "--levels", "2", "--tol", "1e-8"],
    ["a2", "--dim", "2", "--alpha", "1.0", "--out", "a2.txt"],
], ids=lambda argv: argv[0])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
