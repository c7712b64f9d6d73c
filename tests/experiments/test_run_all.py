"""``gramer experiment`` computes each experiment's grid once per run.

Every module's ``run`` is wrapped with a call counter while
``run_all.main`` drives it; the report text must come from rendering that
one result, not from a second pass through ``main``.
"""

from collections import Counter

from repro.experiments import (
    fig02_patterns,
    fig11_energy,
    run_all,
    table2_resources,
    table4_clock,
)

CHEAP = {"table2": table2_resources, "table4": table4_clock, "fig02": fig02_patterns}


def _count_calls(monkeypatch, module, name, calls, result=None):
    """Replace ``module.name`` by a counting wrapper (or a canned result)."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[f"{module.__name__}.{name}"] += 1
        return real(*args, **kwargs) if result is None else result

    monkeypatch.setattr(module, name, counted)


def test_each_module_runs_once(monkeypatch, tmp_path):
    calls = Counter()
    for module in CHEAP.values():
        _count_calls(monkeypatch, module, "run", calls)
    run_all.main(["--scale", "tiny", "--only", *CHEAP, "--jobs", "1",
                  "--out", str(tmp_path)])
    assert calls == {f"{module.__name__}.run": 1 for module in CHEAP.values()}
    for name in CHEAP:
        assert (tmp_path / f"{name}.txt").read_text(encoding="utf-8").strip()


def test_standalone_fig11_runs_each_panel_once(monkeypatch, tmp_path):
    # Canned panels: the orchestration is under test, not the Table III grid.
    energy = [{"graph": "citeseer", "fractal_min": 2.0, "fractal_mean": 3.0,
               "fractal_max": 4.0}]
    total = [{"graph": "citeseer", "gramer_exec_s": 1e-3,
              "gramer_preproc_s": 1e-4, "preproc_fraction": 0.09,
              "fractal_s": 2e-3, "rstream_s": None}]
    calls = Counter()
    _count_calls(monkeypatch, fig11_energy, "run_energy", calls, energy)
    _count_calls(monkeypatch, fig11_energy, "run_total_time", calls, total)
    run_all.main(["--scale", "tiny", "--only", "fig11", "--jobs", "1",
                  "--out", str(tmp_path)])
    assert calls == {"repro.experiments.fig11_energy.run_energy": 1,
                     "repro.experiments.fig11_energy.run_total_time": 1}
    expected = fig11_energy.render({"energy": energy, "total_time": total})
    assert (tmp_path / "fig11.txt").read_text(encoding="utf-8") == expected + "\n"
