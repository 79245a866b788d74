"""End-to-end tests of the ``collinear`` command-line interface."""

import hashlib
from fractions import Fraction as F

import pytest

from collinear import applications, cli, realize
from collinear.cli import main
from collinear.curves import GoodCurve, Vst, parse_curve, serialize_curve
from collinear.plane_graph import parse_plane_graph
from collinear.realize import (Drawing, DrawingReport, RealizeError,
                               labeling_from_curve, parse_drawing,
                               serialize_drawing)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    # "key value" lines; a key alone on its line has the empty value
    d = {}
    for line in out.splitlines():
        parts = line.split(None, 1)
        if parts:
            d.setdefault(parts[0], parts[1] if len(parts) == 2 else "")
    return d


@pytest.fixture
def tree_graph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--kind", "3tree", "--n", "100",
                     "--out", str(path))
    assert code == 0
    return path


def dodecahedron_file(tmp_path):
    # three rings of five around an inner ring, a cubic triconnected graph
    import math

    pos = {}
    for ring, (r, off) in enumerate([(100, 0.0), (60, 0.0),
                                     (35, math.pi / 5), (15, math.pi / 5)]):
        for i in range(5):
            ang = math.pi / 2 + 2 * math.pi * i / 5 + off
            pos[5 * ring + i] = (r * math.cos(ang), r * math.sin(ang))
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, 5 + i))
        edges.append((5 + i, 10 + i))
        edges.append((5 + i, 10 + (i - 1) % 5))
        edges.append((10 + i, 15 + i))
        edges.append((15 + i, 15 + (i + 1) % 5))
    from collinear.plane_graph import graph_from_positions

    g = graph_from_positions(pos, edges)
    path = tmp_path / "dodec.txt"
    from collinear.plane_graph import serialize_plane_graph

    path.write_text(serialize_plane_graph(g))
    return path


class TestCurveCommand:
    def test_3tree_meets_bound(self, tmp_path, capsys, tree_graph):
        out_curve = tmp_path / "c.txt"
        code, out, _ = run(capsys, "curve", str(tree_graph),
                           "--method", "3tree", "--out", str(out_curve))
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["bound"]) == 13
        assert int(kv["vertices_on_curve"]) >= 13
        g = parse_plane_graph(tree_graph.read_text())
        c = parse_curve(g, out_curve.read_text())
        assert c.vertex_count == int(kv["vertices_on_curve"])

    def test_cubic_dodecahedron(self, tmp_path, capsys):
        gpath = dodecahedron_file(tmp_path)
        code, out, _ = run(capsys, "curve", str(gpath), "--method", "cubic")
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["bound"]) == 5
        assert int(kv["vertices_on_curve"]) >= 5
        assert any(line.startswith("charge ") for line in out.splitlines())

    def test_grid_reembeds_graph(self, tmp_path, capsys):
        gpath, mpath = tmp_path / "g.txt", tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--kind", "grid", "--n", "10",
                         "--out", str(gpath), "--out-model", str(mpath))
        assert code == 0
        cpath, g2path = tmp_path / "c.txt", tmp_path / "g2.txt"
        code, out, _ = run(capsys, "curve", str(gpath), "--method", "grid",
                           "--model", str(mpath), "--out", str(cpath),
                           "--out-graph", str(g2path))
        assert code == 0
        assert int(parse_kv(out)["vertices_on_curve"]) >= 12
        code, out, _ = run(capsys, "verify", str(g2path),
                           "--curve", str(cpath))
        assert code == 0
        assert "curve proper ok" in out

    def test_grid_without_model_is_input_error(self, tmp_path, capsys,
                                               tree_graph):
        code, _, err = run(capsys, "curve", str(tree_graph),
                           "--method", "grid")
        assert code == 2
        assert err.startswith("error input")


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [AssertionError("pieces do not meet"),
                                     RecursionError("maximum depth"),
                                     MemoryError("no room"),
                                     ValueError("math domain error")])
    def test_exit_4_with_one_line(self, monkeypatch, capsys, exc):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_curve", fail)
        code, out, err = run(capsys, "curve", "g.txt", "--method", "3tree")
        assert code == 4
        assert out == ""
        assert err == f"error internal {type(exc).__name__}: {exc}\n"


class TestMalformedInput:
    # one bad line per file format: exit 2 and one line naming it, never a
    # traceback from the parser
    @pytest.mark.parametrize("fmt,line", [
        ("graph", "rot 0: 1 x"),
        ("curve", "x 1"),
        ("drawing", "v 0 1/0 2"),
        ("model", "refh 1 1: 3"),
        ("targets", "v 3"),
        ("points", "p 1/0 2"),
    ])
    def test_bad_line_is_input_error(self, tmp_path, capsys, tree_graph, fmt, line):
        head = {"graph": "planegraph 2", "curve": "curve open", "drawing": "drawing 1",
                "model": "gridmodel 4", "targets": "", "points": ""}[fmt]
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{head}\n{line}\n")
        curve = tmp_path / "c.txt"
        run(capsys, "curve", str(tree_graph), "--method", "3tree", "--out", str(curve))
        g = str(tree_graph)
        argv = {"graph": ["verify", str(bad), "--curve", str(curve)],
                "curve": ["draw", g, str(bad)],
                "drawing": ["verify", g, "--drawing", str(bad)],
                "model": ["verify", g, "--model", str(bad)],
                "targets": ["place", g, str(curve), str(bad)],
                "points": ["ups", g, str(bad)]}[fmt]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error input bad line: {line!r}\n"

    K4 = "planegraph 4\nrot 0: 1 3 2\nrot 1: 2 3 0\nrot 2: 0 3 1\nrot 3: 0 1 2\nouter: 0 1 2\n"

    @pytest.mark.parametrize("lines,message", [
        # 0, 1 and 2 are not collinear: the repeated 0 gave the zero line
        ("v 3 2 1\ndesignated: 0 0 1 2", "designated vertices repeated: [0]"),
        # five lines for four vertices: which of vertex 3's is meant?
        ("v 3 2 1\nv 3 2 -1", "duplicate coordinate line for vertex 3"),
    ])
    def test_repeated_drawing_vertex_is_input_error(self, tmp_path, capsys, lines,
                                                    message):
        g, d = tmp_path / "g.txt", tmp_path / "d.txt"
        g.write_text(self.K4)
        d.write_text(f"drawing 4\nv 0 0 0\nv 1 2 4\nv 2 4 0\n{lines}\n")
        code, out, err = run(capsys, "verify", str(g), "--drawing", str(d))
        assert (code, out) == (2, "")
        assert err == f"error input {message}\n"

    DRAWING = "drawing 4\nv 0 0 0\nv 1 2 4\nv 2 4 0\nv 3 2 1\n"

    @pytest.mark.parametrize("graph,drawing,message", [
        # the second line used to win: the drawing had no designated vertex
        (K4, DRAWING + "designated: 0\ndesignated:\n",
         "duplicate designated line: 'designated:'"),
        (K4 + "outer: 0 2 3\n", DRAWING, "duplicate outer line: 'outer: 0 2 3'"),
    ], ids=["designated", "outer"])
    def test_repeated_header_line_is_input_error(self, tmp_path, capsys, graph, drawing,
                                                 message):
        g, d = tmp_path / "g.txt", tmp_path / "d.txt"
        g.write_text(graph)
        d.write_text(drawing)
        code, out, err = run(capsys, "verify", str(g), "--drawing", str(d))
        assert (code, out) == (2, "")
        assert err == f"error input {message}\n"


def test_verify_reports_a_vertex_moved_across_an_edge(tmp_path, capsys):
    # the first violation of the full check, word for word, although a
    # triangulation's valid drawings are certified face by face
    g, c, d = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "d.txt"
    run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out", str(g))
    run(capsys, "curve", str(g), "--method", "3tree", "--out", str(c))
    run(capsys, "draw", str(g), str(c), "--out", str(d))
    graph, drawing = parse_plane_graph(g.read_text()), parse_drawing(d.read_text())
    outer = set(graph.face_vertices(graph.outer))
    w = min(v for v in graph.vertices if graph.degree(v) == 3 and v not in outer)
    a, b = graph.rot[w][:2]
    assert (w, a, b) == (13, 9, 3)
    coords = dict(drawing.coords)
    (ax, ay), (bx, by), (wx, wy) = coords[a], coords[b], coords[w]
    coords[w] = (ax + bx - wx, ay + by - wy)     # mirrored in the middle of ab
    d.write_text(serialize_drawing(Drawing(coords, drawing.designated)))
    code, out, err = run(capsys, "verify", str(g), "--drawing", str(d))
    assert (code, out) == (1, "drawing FAIL\n")
    assert err == "error verification edges (1, 13) and (3, 9) intersect\n"


class TestComments:
    # `#` starts a comment in every input file, on a line of its own or
    # after the data
    @pytest.mark.parametrize("fmt", ["graph", "curve", "drawing", "model",
                                     "targets", "points"])
    def test_comments_are_ignored(self, tmp_path, capsys, fmt):
        g, c, d = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "d.txt"
        grid, model = tmp_path / "grid.txt", tmp_path / "m.txt"
        t, p = tmp_path / "t.txt", tmp_path / "p.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out", str(g))
        run(capsys, "curve", str(g), "--method", "3tree", "--out", str(c))
        run(capsys, "draw", str(g), str(c), "--out", str(d))
        run(capsys, "gen", "--kind", "grid", "--n", "6", "--out", str(grid),
            "--out-model", str(model))
        graph = parse_plane_graph(g.read_text())
        lab = labeling_from_curve(graph, parse_curve(graph, c.read_text()))
        t.write_text("".join(
            f"v {e[1]} {i + 1}\n" if e[0] == "v" else f"e {e[1][0]} {e[1][1]} {i + 1}\n"
            for i, e in enumerate(lab.order)))
        p.write_text("p 1 2\np 5 7\n")
        path, argv = {
            "graph": (g, ["verify", str(g), "--curve", str(c)]),
            "curve": (c, ["draw", str(g), str(c)]),
            "drawing": (d, ["verify", str(g), "--drawing", str(d)]),
            "model": (model, ["verify", str(grid), "--model", str(model)]),
            "targets": (t, ["place", str(g), str(c), str(t)]),
            "points": (p, ["ups", str(g), str(p)]),
        }[fmt]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        lines = path.read_text().splitlines()
        path.write_text("# a comment line\n" + "".join(
            f"{line}  # a trailing comment\n" for line in lines))
        assert run(capsys, *argv) == plain


class TestDrawAndVerify:
    def test_pipeline(self, tmp_path, capsys, tree_graph):
        cpath, dpath = tmp_path / "c.txt", tmp_path / "d.txt"
        svg = tmp_path / "d.svg"
        run(capsys, "curve", str(tree_graph), "--method", "3tree",
            "--out", str(cpath))
        code, out, _ = run(capsys, "draw", str(tree_graph), str(cpath),
                           "--out", str(dpath), "--svg", str(svg))
        assert code == 0
        assert "verified ok" in out
        assert svg.read_text().startswith("<svg")
        code, out, _ = run(capsys, "verify", str(tree_graph),
                           "--curve", str(cpath), "--drawing", str(dpath))
        assert code == 0
        assert "drawing ok" in out

    def test_bad_drawing_fails(self, tmp_path, capsys, tree_graph):
        g = parse_plane_graph(tree_graph.read_text())
        coords = {v: (F(v), F(0)) for v in g.vertices}
        bad = tmp_path / "bad.txt"
        bad.write_text(serialize_drawing(Drawing(coords, ())))
        code, _, err = run(capsys, "verify", str(tree_graph),
                           "--drawing", str(bad))
        assert code == 1
        assert err.startswith("error verification")

    def test_crossing_near_1e17_fails(self, tmp_path, capsys):
        # the path 0-1-2-3 drawn with edges (0, 1) and (2, 3) crossing at
        # coordinates near 1e17
        gpath, dpath = tmp_path / "g.txt", tmp_path / "d.txt"
        gpath.write_text("planegraph 4\nrot 0: 1\nrot 1: 0 2\nrot 2: 1 3\n"
                         "rot 3: 2\nouter: 0 1 2 3 2 1\n")
        dpath.write_text("drawing 4\n"
                         "v 0 70076886150809407/534 98507140039826179977/664\n"
                         "v 1 96322910926394421/734 62308733157721377541/420\n"
                         "v 2 3411983220825929/26 40352322425952892307/272\n"
                         "v 3 11154560529624228/85 70764918371983566146/477\n")
        code, out, err = run(capsys, "verify", str(gpath), "--drawing", str(dpath))
        assert code == 1
        assert "drawing FAIL" in out
        assert err == "error verification edges (0, 1) and (2, 3) intersect\n"

    def test_realize_failure_after_valid_curve_is_internal(self, tmp_path, capsys,
                                                            monkeypatch):
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        run(capsys, "gen", "--kind", "cubic", "--n", "20", "--out", str(gpath))
        run(capsys, "curve", str(gpath), "--method", "cubic", "--out", str(cpath))
        code, out, _ = run(capsys, "draw", str(gpath), str(cpath))
        assert code == 0 and "verified ok" in out

        def infeasible(*args, **kwargs):
            raise RealizeError("straightening LP infeasible: no luck")

        monkeypatch.setattr(realize, "_straighten", infeasible)
        code, out, err = run(capsys, "draw", str(gpath), str(cpath))
        assert code == 4
        assert out == ""
        assert err == ("error internal RealizeError: "
                       "straightening LP infeasible: no luck\n")

    @pytest.mark.parametrize("y,stations,count", [
        (-2, [('f', 0), ('v', 5), ('f', 0)], 1),     # tangent at vertex 5
        (-3, [('f', 0)], 0),                         # misses the drawing
    ], ids=["tangent", "miss"])
    def test_draw_read_back_of_a_line_that_touches_or_misses(self, tmp_path, capsys,
                                                              y, stations, count):
        # the Theorem-4 drawing of a cubic graph spans the levels y = -2 .. 5;
        # reading a line back from it gives a proper curve that draw realizes
        from collinear.cubic import generate_triconnected_cubic, theorem4
        from collinear.curves import curve_from_drawing
        from collinear.plane_graph import serialize_plane_graph

        g = generate_triconnected_cubic(1, 12)
        d = realize.curve_to_drawing(g, theorem4(g).curve)
        c = curve_from_drawing(g, d.coords, (F(0), F(1), F(y)))
        assert list(c.stations) == stations
        gpath, cpath, dpath = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "d.txt"
        gpath.write_text(serialize_plane_graph(g))
        cpath.write_text(serialize_curve(g, c))
        code, out, err = run(capsys, "draw", str(gpath), str(cpath), "--out", str(dpath))
        assert (code, err) == (0, "")
        assert "verified ok" in out
        assert int(parse_kv(out)["collinear_vertices"]) == count
        assert parse_drawing(dpath.read_text()).designated == c.vertices
        code, out, _ = run(capsys, "verify", str(gpath), "--curve", str(cpath),
                           "--drawing", str(dpath))
        assert code == 0 and "drawing ok" in out

    def test_draw_non_proper_curve_is_input_error(self, tmp_path, capsys,
                                                  tree_graph):
        g = parse_plane_graph(tree_graph.read_text())
        inner = next(v for v in g.vertices if v not in g.outer_walk())
        cpath = tmp_path / "c.txt"
        cpath.write_text(serialize_curve(g, GoodCurve((Vst(inner),))))
        code, out, err = run(capsys, "draw", str(tree_graph), str(cpath))
        assert code == 2
        assert out == ""
        assert err == "error input curve is not proper\n"

    def test_verify_nothing_is_input_error(self, capsys, tree_graph):
        code, _, err = run(capsys, "verify", str(tree_graph))
        assert code == 2
        assert "nothing to verify" in err


class TestSmallGraphTools:
    def test_dp_and_oracle_agree(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "9", "--out", str(gpath))
        code, out, _ = run(capsys, "dp", str(gpath))
        assert code == 0
        optimal = int(parse_kv(out)["optimal"])
        code, out, _ = run(capsys, "oracle", str(gpath))
        assert code == 0
        assert int(parse_kv(out)["max_vertices"]) == optimal

    @pytest.mark.parametrize("n,digest", [
        (60, "ec0006728b5dcdd61ae462417df1de2f939b7d17f9778833b16cda21d32164ae"),
        (400, "5b6d673b95a010ab4ec3723765d466db10fa64f706484dc547db1036c7d432e8"),
    ])
    def test_dp_output_pinned(self, tmp_path, capsys, n, digest):
        # sha256 of the optimum, the root table lines and the --out curve,
        # pinned on the dictionary-routed DP before it moved to slots
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", str(n), "--out", str(gpath))
        code, out, _ = run(capsys, "dp", str(gpath), "--out", str(cpath))
        assert code == 0
        text = out + cpath.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_oracle_guard(self, capsys, tree_graph):
        code, _, err = run(capsys, "oracle", str(tree_graph))
        assert code == 3
        assert err.startswith("error guard")


class TestPlacementCommands:
    def test_place_exact_targets(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "9", "--out", str(gpath))
        cpath = tmp_path / "c.txt"
        run(capsys, "dp", str(gpath), "--out", str(cpath))
        g = parse_plane_graph(gpath.read_text())
        lab = labeling_from_curve(g, parse_curve(g, cpath.read_text()))
        tpath = tmp_path / "t.txt"
        lines = []
        for i, e in enumerate(lab.order):
            if e[0] == "v":
                lines.append(f"v {e[1]} {F(2 * i + 1, 2)}")
            else:
                lines.append(f"e {e[1][0]} {e[1][1]} {F(2 * i + 1, 2)}")
        tpath.write_text("\n".join(lines) + "\n")
        dpath = tmp_path / "d.txt"
        code, out, _ = run(capsys, "place", str(gpath), str(cpath),
                           str(tpath), "--out", str(dpath))
        assert code == 0
        assert "verified ok" in out
        d = parse_drawing(dpath.read_text())
        for i, e in enumerate(lab.order):
            if e[0] == "v":
                assert d.coords[e[1]] == (F(2 * i + 1, 2), F(0))

    def test_place_a_line_that_misses_the_drawing(self, tmp_path, capsys):
        # the read-back of a line that misses the drawing is a lone hop
        # through the outer face: every vertex above it, nothing to target
        from collinear.plane_graph import serialize_plane_graph
        from collinear.three_tree import random_plane_3tree

        gpath, cpath, tpath = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "t.txt"
        gpath.write_text(serialize_plane_graph(random_plane_3tree(10, 1)))
        cpath.write_text("curve open\nf 0 1 2\n")
        tpath.write_text("")
        code, out, err = run(capsys, "place", str(gpath), str(cpath), str(tpath))
        assert (code, err) == (0, "")
        assert "placed 0" in out and "verified ok" in out

    def test_place_missing_target(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "9", "--out", str(gpath))
        cpath = tmp_path / "c.txt"
        run(capsys, "dp", str(gpath), "--out", str(cpath))
        tpath = tmp_path / "t.txt"
        tpath.write_text("v 0 1\n")
        code, _, err = run(capsys, "place", str(gpath), str(cpath),
                           str(tpath))
        assert code == 2
        assert "no target" in err

    def test_ups_hits_points(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out",
            str(gpath))
        ppath = tmp_path / "p.txt"
        ppath.write_text("p 1 2\np 5 7\np 9 3\n")
        dpath = tmp_path / "d.txt"
        code, out, _ = run(capsys, "ups", str(gpath), str(ppath),
                           "--out", str(dpath))
        assert code == 0
        kv = parse_kv(out)
        assert kv["placed"] == "3"
        d = parse_drawing(dpath.read_text())
        hit = {d.coords[v] for v in d.designated}
        assert hit == {(F(1), F(2)), (F(5), F(7)), (F(9), F(3))}

    def test_untangle_fixes_enough(self, tmp_path, capsys):
        import random

        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out",
            str(gpath))
        g = parse_plane_graph(gpath.read_text())
        rng = random.Random(7)
        coords = {v: (F(rng.randrange(-99, 99)), F(rng.randrange(-99, 99)))
                  for v in g.vertices}
        bpath = tmp_path / "bad.txt"
        bpath.write_text(serialize_drawing(Drawing(coords, ())))
        dpath = tmp_path / "out.txt"
        code, out, _ = run(capsys, "untangle", str(gpath), str(bpath),
                           "--out", str(dpath))
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["fixed"]) >= int(kv["bound"])
        d = parse_drawing(dpath.read_text())
        fixed = [int(s) for s in kv["fixed_vertices"].split()]
        for v in fixed:
            assert d.coords[v] == coords[v]

    def test_untangle_triangle(self, tmp_path, capsys):
        # a triangle has no guaranteed collinear vertex: nothing is lifted
        # and nothing need stay fixed
        gpath, bpath = tmp_path / "g.txt", tmp_path / "bad.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "3", "--out", str(gpath))
        coords = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))}
        bpath.write_text(serialize_drawing(Drawing(coords, ())))
        code, out, _ = run(capsys, "untangle", str(gpath), str(bpath))
        assert code == 0
        kv = parse_kv(out)
        assert (kv["bound"], kv["verified"]) == ("0", "ok")
        assert (kv["fixed"], kv["fixed_vertices"]) == ("0", "")
        assert "fixed_vertices\n" in out
        assert not any(line.endswith(" ") for line in out.splitlines())

    def test_untangle_bound_matches_library(self, tmp_path, capsys):
        gpath, bpath = tmp_path / "g.txt", tmp_path / "bad.txt"
        for n in range(3, 41):
            run(capsys, "gen", "--kind", "3tree", "--n", str(n), "--seed", str(n),
                "--out", str(gpath))
            g = parse_plane_graph(gpath.read_text())
            coords = {v: (F(v * v % 37), F(v * 7 % 41, 3)) for v in g.vertices}
            bpath.write_text(serialize_drawing(Drawing(coords, ())))
            code, out, _ = run(capsys, "untangle", str(gpath), str(bpath))
            k = -(-(n - 3) // 8)
            want = next(b for b in range(k + 1) if b * b >= k)
            assert code == 0
            assert int(parse_kv(out)["bound"]) == applications.untangle_guarantee(n) == want

    def test_ups_verified_ok(self, tmp_path, capsys):
        # two points share an x-coordinate, so the axes are rotated
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "40", "--seed", "3",
            "--out", str(gpath))
        ppath = tmp_path / "p.txt"
        ppath.write_text("p 0 0\np 0 5\np 3 -2\np 7/2 1\n")
        code, out, _ = run(capsys, "ups", str(gpath), str(ppath))
        assert code == 0
        assert parse_kv(out)["verified"] == "ok"

    def test_untangle_verified_ok(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "40", "--seed", "5",
            "--out", str(gpath))
        g = parse_plane_graph(gpath.read_text())
        coords = {v: (F(v * v % 37), F(v * 7 % 41, 3)) for v in g.vertices}
        bpath = tmp_path / "bad.txt"
        bpath.write_text(serialize_drawing(Drawing(coords, ())))
        code, out, _ = run(capsys, "untangle", str(gpath), str(bpath))
        assert code == 0
        assert parse_kv(out)["verified"] == "ok"

    def test_ups_broken_promise_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.universal_placement

        def off_target(g, pts):
            d = real(g, pts)
            others = tuple(v for v in g.vertices if v not in d.designated)
            return Drawing(d.coords, others[:len(d.designated)])

        monkeypatch.setattr(cli, "universal_placement", off_target)
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out", str(gpath))
        ppath = tmp_path / "p.txt"
        ppath.write_text("p 1 2\np 5 7\n")
        code, out, err = run(capsys, "ups", str(gpath), str(ppath))
        assert code == 1
        assert parse_kv(out)["verified"] == "FAIL"
        assert err.startswith("error verification designated vertices")

    def test_untangle_broken_promise_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.untangle

        def claims_more(g, bad):
            res = real(g, bad)
            extra = next(v for v in g.vertices
                         if res.drawing.coords[v] != bad[v])
            return type(res)(res.fixed | {extra}, res.drawing)

        monkeypatch.setattr(cli, "untangle", claims_more)
        gpath = tmp_path / "g.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out", str(gpath))
        g = parse_plane_graph(gpath.read_text())
        coords = {v: (F(v * v % 37), F(v * 7 % 41, 3)) for v in g.vertices}
        bpath = tmp_path / "bad.txt"
        bpath.write_text(serialize_drawing(Drawing(coords, ())))
        code, out, err = run(capsys, "untangle", str(gpath), str(bpath))
        assert code == 1
        assert parse_kv(out)["verified"] == "FAIL"
        assert "moved" in err and err.startswith("error verification fixed vertex")


    @pytest.mark.parametrize("command", ["ups", "untangle"])
    def test_own_check_failure_is_verification_error(self, tmp_path, capsys,
                                                     monkeypatch, command):
        def rejects(g, d):
            return DrawingReport(False, True, True, True,
                                 ["edges (0, 1) and (2, 3) intersect"])

        monkeypatch.setattr(applications, "verify_drawing", rejects)
        gpath, ipath = tmp_path / "g.txt", tmp_path / "in.txt"
        run(capsys, "gen", "--kind", "3tree", "--n", "30", "--out", str(gpath))
        if command == "ups":
            ipath.write_text("p 1 2\np 5 7\n")
        else:
            g = parse_plane_graph(gpath.read_text())
            coords = {v: (F(v * v % 37), F(v * 7 % 41, 3)) for v in g.vertices}
            ipath.write_text(serialize_drawing(Drawing(coords, ())))
        code, out, err = run(capsys, command, str(gpath), str(ipath))
        assert code == 1
        assert out == ""
        what = "universal placement" if command == "ups" else "untangled"
        assert err == (f"error verification {what} drawing failed: "
                       "['edges (0, 1) and (2, 3) intersect']\n")


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "gen", "--kind", "cubic", "--n", "20",
                             "--seed", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "3tree", "--n", "8")
        assert code == 0
        assert "graph 8" in out

    def test_stdout_pipes_into_curve(self, tmp_path, capsys):
        # `collinear gen ... > g.txt && collinear curve g.txt`: the status
        # lines go to stderr so that stdout is exactly the graph file
        code, out, err = run(capsys, "gen", "--kind", "cubic", "--n", "20",
                             "--seed", "1")
        assert code == 0
        assert parse_kv(err) == {"kind": "cubic", "n": "20"}
        path = tmp_path / "g.txt"
        path.write_text(out)
        assert parse_plane_graph(out).n == 20
        code, out, _ = run(capsys, "curve", str(path), "--method", "cubic")
        assert code == 0
        assert int(parse_kv(out)["vertices_on_curve"]) >= 5

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "curve", str(tmp_path / "nope.txt"),
                           "--method", "3tree")
        assert code == 2
        assert err.startswith("error input")
