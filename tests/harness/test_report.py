"""Unit tests for tables, scales, and the harness CLI plumbing."""

import json

import pytest

from repro.harness.report import Table, fmt_cell, render_table, save_json, tables_to_json
from repro.harness.scales import PAPER, SMALL, get_scale


class TestTable:
    def test_add_and_column(self):
        t = Table(id="t", title="x", columns=["a", "b"])
        t.add(1, 2.5)
        t.add(3, 4.5)
        assert t.column("b") == [2.5, 4.5]

    def test_row_arity_checked(self):
        t = Table(id="t", title="x", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_render_aligns(self):
        t = Table(id="fig0", title="demo", columns=["name", "value"],
                  notes="a note")
        t.add("alpha", 1.0)
        t.add("b", 123456.0)
        out = render_table(t)
        assert "fig0" in out and "demo" in out
        assert "a note" in out
        lines = out.splitlines()
        assert len({len(l) for l in lines[1:4]}) <= 2  # header/body aligned

    def test_fmt_cell(self):
        assert fmt_cell(None) == "-"
        assert fmt_cell(True) == "yes"
        assert fmt_cell(0.0) == "0"
        assert fmt_cell(0.000123) == "0.000123"
        assert fmt_cell(1234567.0) == "1.23e+06"
        assert fmt_cell(12) == "12"

    def test_json_roundtrip(self, tmp_path):
        t = Table(id="t1", title="x", columns=["a"], rows=[[1], [2]])
        path = tmp_path / "out.json"
        save_json([t], str(path))
        data = json.loads(path.read_text())
        assert data["t1"]["rows"] == [[1], [2]]
        assert tables_to_json([t])["t1"]["columns"] == ["a"]


class TestScales:
    def test_get_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "small"

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale().name == "paper"

    def test_get_scale_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale("small").name == "small"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_paper_scale_reaches_published_counts(self):
        assert max(PAPER.fig4_streams) == 2048
        assert max(PAPER.fig8_read_procs) == 65536
        assert max(PAPER.fig8_meta_procs) == 32768
        assert max(SMALL.fig4_streams) <= 512


class TestCLI:
    def test_main_rejects_unknown_figure(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["figX"])

    def test_main_rejects_unknown_instrument(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fig7", "--instrument", "sanitize,bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown instrument(s) bogus" in err
        assert "choose from sanitize, collectives" in err

    def test_main_runs_smallest_figure(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        out_json = tmp_path / "r.json"
        # fig7 is the fastest figure end-to-end.
        assert main(["fig7", "--json", str(out_json)]) == 0
        captured = capsys.readouterr().out
        assert "fig7a" in captured
        data = json.loads(out_json.read_text())
        assert "fig7a" in data and "fig7b" in data

    def test_main_chart_flag(self, capsys):
        from repro.harness.__main__ import main

        assert main(["fig7", "--chart", "--logy"]) == 0
        captured = capsys.readouterr().out
        assert "[log y]" in captured
        assert "a=PLFS-1" in captured
