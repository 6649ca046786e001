import numpy as np

from sepselect.svgplot import Chart


def test_line_chart_renders_polylines_and_marker():
    chart = Chart(title="curve", x_label="k", y_label="v")
    chart.add_series([1, 2, 3, 4], [0.2, 0.5, 0.6, 0.61], label="one")
    chart.add_series([1, 2, 3, 4], [0.1, 0.2, np.nan, 0.4], label="two")
    chart.add_vline(2, label="k=2")
    svg = chart.render()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg
    assert "curve" in svg and "k=2" in svg


def test_line_chart_deterministic():
    def build():
        chart = Chart()
        chart.add_series([0, 1, 2], [5.0, 4.0, 1.0])
        return chart.render()

    assert build() == build()


def test_scatter_chart_groups():
    chart = Chart(title="points")
    chart.add_points([0, 1, 2], [0, 1, 2], label="plain")
    chart.add_points([0.5], [0.5], label="special", radius=5.0, filled=False)
    svg = chart.render()
    assert svg.count("<circle") >= 4  # 3 + 1 points plus legend dots
    assert 'fill="none"' in svg


def test_save_writes_file(tmp_path):
    chart = Chart()
    chart.add_series([0, 1, 2], [1.0, 2.0, 3.0])
    path = tmp_path / "chart.svg"
    chart.save(str(path))
    assert path.read_text().startswith("<svg")
