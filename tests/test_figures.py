"""The violin density (a Gaussian KDE with Silverman's bandwidth, in numpy), its outline and the chart frame."""

import hashlib
import math
import re
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brierlab import figures
from brierlab.figures import (
    _HALF_VIOLIN,
    _MARGIN_LEFT,
    _PLOT_HEIGHT,
    _PLOT_TOP,
    _SLOT_WIDTH,
    _outline_points,
    _violin_rows,
    bar_svg,
    violin_svg,
)


def _normal_pdf(x, h):
    return math.exp(-0.5 * (x / h) ** 2) / (h * math.sqrt(2 * math.pi))


def test_two_samples_match_hand_computed_density():
    (grid, density, bandwidth), *_ = _violin_rows(np.array([[0.0, 1.0]]))[0]
    # sd = sqrt(1/2) with ddof=1; Silverman's factor is (3N/4) ** (-1/5) = 1.5 ** -0.2
    h = 1.5**-0.2 * math.sqrt(0.5)
    assert bandwidth == pytest.approx(h, rel=1e-15, abs=0)
    assert grid.size == 81
    assert grid[0] == pytest.approx(-2 * h, rel=1e-15, abs=0)
    assert grid[-1] == pytest.approx(1 + 2 * h, rel=1e-15, abs=0)
    for x, value in zip(grid, density):
        expected = (_normal_pdf(x, h) + _normal_pdf(x - 1.0, h)) / 2
        assert value == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("samples", [[0.3], [0.3, 0.3, 0.3], [0.0] * 50])
def test_zero_spread_has_no_outline(samples):
    assert _violin_rows(np.array([samples]))[0][0] is None


@pytest.mark.parametrize("n", [2, 200, 1000, 5000])
def test_matches_scipy_gaussian_kde(n):
    stats = pytest.importorskip("scipy.stats")
    samples = np.random.default_rng(n).beta(2.0, 5.0, size=n)
    (grid, density, bandwidth), *_ = _violin_rows(samples[None, :])[0]
    kde = stats.gaussian_kde(samples, bw_method="silverman")
    reference = float(kde.factor) * np.std(samples, ddof=1)
    assert bandwidth == pytest.approx(reference, rel=1e-15, abs=0)
    np.testing.assert_allclose(density, kde(grid), rtol=1e-12, atol=0)


def reference_polygon_points(cx, grid, density, lo, span):
    """The violin outline as it was drawn point by point, one format call per coordinate."""

    def y_of(value):
        return _PLOT_TOP + _PLOT_HEIGHT * (1.0 - (value - lo) / span)

    peak = float(np.max(density))
    scale = _HALF_VIOLIN / peak if peak > 0 else 0.0
    right = [(cx + d * scale, y_of(v)) for v, d in zip(grid, density)]
    left = [(cx - d * scale, y_of(v)) for v, d in zip(reversed(grid), reversed(density))]
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in right + left)


def _violin_centre(index):
    return _MARGIN_LEFT + _SLOT_WIDTH * (index + 0.5)


@pytest.mark.parametrize("seed", range(20))
def test_outline_matches_reference_on_random_densities(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 200))
    grid = np.sort(rng.uniform(-1.0, 2.0, size))
    density = rng.exponential(rng.uniform(0.01, 50.0), size)
    lo = float(grid[0]) - rng.uniform(0.0, 0.5)
    span = float(grid[-1]) - lo + rng.uniform(0.0, 0.5)
    cx = _violin_centre(int(rng.integers(0, 35)))
    expected = reference_polygon_points(cx, grid, density, lo, span)
    assert _outline_points(cx, grid, density, lo, span) == expected


def _near(values, ulps=3):
    """Each value with its neighbours up to ``ulps`` representable steps either side."""
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@pytest.mark.parametrize("lo, span", [(0.0, 1.0), (-0.125, 1.25), (0.1, 0.3), (0.0137, 0.0421)])
def test_outline_matches_reference_on_rounding_boundaries(lo, span):
    # grid and density values whose pixel coordinates land within a few ulps
    # of a .xx5 boundary, where any other rounding of one step flips a digit
    cx = _violin_centre(2)
    peak = 0.7
    halves = 0.005 + 0.01 * np.arange(0, 3400, 7)  # .xx5 offsets up to 34 px
    grid = _near(lo + span * (1.0 - halves[halves < _PLOT_HEIGHT] / _PLOT_HEIGHT))
    density = _near(halves * (peak / _HALF_VIOLIN))
    size = min(grid.size, density.size)
    grid, density = grid[:size], np.append(density[: size - 1], peak)
    expected = reference_polygon_points(cx, grid, density, lo, span)
    assert _outline_points(cx, grid, density, lo, span) == expected


def test_outline_with_zero_peak_is_a_vertical_line():
    grid = np.linspace(0.2, 0.4, 81)
    density = np.zeros(81)
    cx = _violin_centre(3)
    points = _outline_points(cx, grid, density, 0.1, 0.5)
    assert points == reference_polygon_points(cx, grid, density, 0.1, 0.5)
    assert {pair.split(",")[0] for pair in points.split()} == {f"{cx:.2f}"}


@pytest.mark.parametrize("n_groups", [1, 35])
def test_violin_svg_polygons_match_reference(n_groups):
    rng = np.random.default_rng(n_groups)
    groups = [(f"g{i}", rng.beta(2.0, 5.0, size=200)) for i in range(n_groups)]
    svg = violin_svg(groups, "t", "y")
    outlines = [row[0] for row in _violin_rows(np.stack([samples for _, samples in groups]))]
    lo = min(float(grid[0]) for grid, _, _ in outlines)
    hi = max(float(grid[-1]) for grid, _, _ in outlines)
    pad = 0.02 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    polygons = re.findall(r'<polygon points="([^"]*)"', svg)
    assert polygons == [
        reference_polygon_points(_violin_centre(i), grid, density, lo, hi - lo)
        for i, (grid, density, _) in enumerate(outlines)
    ]


def test_markup_characters_escaped_as_saxutils_does(monkeypatch):
    text = """a&b<c>d"e'f &amp;"""
    groups = [(text, np.linspace(0.0, 1.0, 20)), ("flat" + text, np.full(5, 0.5))]
    ours = violin_svg(groups, text, text), figures.bar_svg([(text, 0.25)], text, text)
    monkeypatch.setattr(figures, "_escape", escape)
    assert ours == (violin_svg(groups, text, text), figures.bar_svg([(text, 0.25)], text, text))
    assert "a&amp;b&lt;c&gt;d\"e'f &amp;amp;" in ours[0]


def test_identical_groups_are_computed_once(monkeypatch):
    rng = np.random.default_rng(5)
    shared, other = rng.random(300), rng.random(300)
    groups = [("a", shared), ("b", other), ("c", shared.copy()), ("d", shared), ("e", np.full(4, 0.2))]
    expected = violin_svg(groups, "t", "y")
    tables = []
    monkeypatch.setattr(figures, "_violin_rows", lambda table: tables.append(table.shape) or _violin_rows(table))
    assert violin_svg(groups, "t", "y") == expected
    assert tables == [(2, 300), (1, 4)]  # one table per sample count, one row per distinct sample set
    assert expected.count("<polygon ") == 4  # still one violin per group
    assert expected.count('width="68.00" height="3"') == 1


def reference_kde_outline(samples):
    """The density of one group as computed alone, with np.std, np.min, np.max and np.linspace on its samples."""
    sd = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
    if sd == 0.0:
        return None
    bandwidth = (0.75 * samples.size) ** -0.2 * sd
    grid = np.linspace(float(np.min(samples)) - 2.0 * bandwidth, float(np.max(samples)) + 2.0 * bandwidth, 81)
    z = (grid - samples[:, None]) / bandwidth
    return grid, np.exp(-0.5 * z * z).sum(axis=0) / (samples.size * bandwidth * np.sqrt(2 * np.pi)), bandwidth


def reference_rows(table):
    """_violin_rows computed one row at a time, each with numpy calls on that row alone."""
    rows = []
    for samples in table:
        outline = reference_kde_outline(samples)
        ends = (np.min(samples), np.max(samples)) if outline is None else (outline[0][0], outline[0][-1])
        rows.append((outline, *map(float, ends), *np.quantile(samples, [0.05, 0.5, 0.95]).tolist()))
    return rows


def _bits(row):
    """A row of _violin_rows as bytes and reprs, so that 0.0 and -0.0 or two NaNs do not compare equal by value."""
    outline, *numbers = row
    if outline is not None:
        outline = (outline[0].tobytes(), outline[1].tobytes(), repr(outline[2]), type(outline[2]))
    return outline, np.array(numbers).tobytes(), [type(number) for number in numbers]


_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sample_tables(draw):
    """A (G, N) table of N = 1 to 40 finite values per row, some rows constant."""
    size = draw(st.integers(1, 40))
    rows = draw(st.lists(
        st.one_of(st.lists(_values, min_size=size, max_size=size), _values.map(lambda value: [value] * size)),
        min_size=1, max_size=6,
    ))
    return np.array(rows, dtype=float).reshape(len(rows), size)


@settings(max_examples=300, deadline=None)
@given(sample_tables())
@example(np.array([[0.0, -0.0], [-0.0, 0.0], [0.25, 0.25]]))
@example(np.array([[0.5], [-0.0]]))
@example(np.array([[0.0, 1.0], [0.0, 5e-324], [1e-160, 3e-160]]))
def test_stacked_rows_are_the_rows_computed_alone(table):
    stacked = _violin_rows(table)
    assert len(stacked) == len(table)
    for row, samples, reference in zip(stacked, table, reference_rows(table)):
        assert _bits(row) == _bits(_violin_rows(samples[None, :])[0]) == _bits(reference)
        quantiles = np.quantile(samples, [0.05, 0.5, 0.95])
        assert np.array(row[3:]).tobytes() == quantiles.tobytes()


@st.composite
def violin_groups(draw):
    """Groups of one to eight sample sets of mixed lengths (N = 1, 2, 3 or 17), some sets repeated."""
    groups = []
    for index in range(draw(st.integers(1, 8))):
        if groups and draw(st.booleans()):
            samples = draw(st.sampled_from(groups))[1].copy()
        else:
            size = draw(st.sampled_from([1, 2, 3, 17]))
            samples = np.array(draw(st.one_of(
                st.lists(_values, min_size=size, max_size=size), _values.map(lambda value: [value] * size)
            )))
        groups.append((f"g{index}", samples))
    return groups


@settings(max_examples=200, deadline=None)
@given(violin_groups())
def test_stacking_changes_no_byte_of_a_violin_figure(groups):
    # the same figure with each distinct sample set computed alone, by the one-group formulas
    stacked = violin_svg(groups, "t", "y")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "_violin_rows", reference_rows)
        assert violin_svg(groups, "t", "y") == stacked


@pytest.mark.parametrize("samples, message", [
    (np.array([]), r"violin group 'bad' needs a non-empty 1-D sample array, got shape \(0,\)"),
    (np.zeros((2, 3)), r"violin group 'bad' needs a non-empty 1-D sample array, got shape \(2, 3\)"),
    (0.5, r"violin group 'bad' needs a non-empty 1-D sample array, got shape \(\)"),
    (np.array([0.1, np.nan, 0.3]), "violin group 'bad' has a sample, spread or extent that is not finite"),
    (np.array([0.1, np.inf]), "violin group 'bad' has a sample, spread or extent that is not finite"),
    (np.array([-np.inf, 0.2, 0.3]), "violin group 'bad' has a sample, spread or extent that is not finite"),
    (np.array([np.inf]), "violin group 'bad' has a sample, spread or extent that is not finite"),
    # finite samples whose sd, or whose extent, overflows float64
    (np.array([1e308, -1e308, 0.0]), "violin group 'bad' has a sample, spread or extent that is not finite"),
    (np.array([1.7e308, -1.7e308]), "violin group 'bad' has a sample, spread or extent that is not finite"),
], ids=["empty", "2-d", "scalar", "nan", "inf", "-inf", "lone-inf", "sd-overflows", "extent-overflows"])
def test_bad_violin_samples_are_refused_naming_the_group(samples, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        violin_svg([("good", np.array([0.1, 0.2])), ("bad", samples)], "t", "y")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_bar_that_is_not_finite_is_refused(value):
    with pytest.raises(ValueError, match=rf"^bar 'bad' has a value that is not finite: {value!r}$"):
        bar_svg([("good", 0.5), ("bad", value)], "t", "y")


@pytest.mark.parametrize("draw, axis", [
    (lambda: bar_svg([("a", 1.7e308)], "t", "y"), "from 0.0 to 1.785e+308 cannot be drawn, for 'a'"),
    (lambda: bar_svg([("a", -1e308), ("b", 1e308)], "t", "y"), "from -1e+308 to inf cannot be drawn, for 'a', 'b'"),
    (lambda: violin_svg([("a", [1e308]), ("b", [-1e308])], "t", "y"), "from -inf to inf cannot be drawn, for 'a', 'b'"),
    # a flat violin so far out that the axis padding vanishes beside its value
    (lambda: violin_svg([("a", [1e308])], "t", "y"), "from 1e+308 to 1e+308 cannot be drawn, for 'a'"),
], ids=["bar-ticks-overflow", "bar-span-overflows", "violin-span-overflows", "violin-span-vanishes"])
def test_an_axis_float64_cannot_span_is_refused_naming_the_labels(draw, axis):
    # pytest makes a RuntimeWarning an error, so none is raised on the way
    with pytest.raises(ValueError) as info:
        draw()
    assert str(info.value) == f"a y axis {axis}"


_NOT_XML = ["a\x01b", "\x00", "\x0b", "x\x1f", "\ufffe", "a\uffffb", "\ud800"]
_CHARTS = {
    "violin": lambda label, title, ylabel: violin_svg([("ok", [0.1, 0.2]), (label, [0.3])], title, ylabel),
    "bar": lambda label, title, ylabel: bar_svg([("ok", 0.1), (label, 0.3)], title, ylabel),
}


@pytest.mark.parametrize("chart", _CHARTS)
@pytest.mark.parametrize("place", ["label", "title", "ylabel"])
@pytest.mark.parametrize("text", _NOT_XML)
def test_text_xml_cannot_hold_is_refused(chart, place, text):
    texts = {"label": "x", "title": "t", "ylabel": "y", place: text}
    with pytest.raises(ValueError) as info:
        _CHARTS[chart](**texts)
    assert str(info.value) == f"figure text must be text that XML 1.0 can hold, got {text!r}"


@pytest.mark.parametrize("chart", _CHARTS)
@pytest.mark.parametrize("text", ["a\tb", "a\nb", "\ud7ff", "\ue000", "\ufffd", "\U00010000", "ost\u00e9o"])
def test_any_other_text_is_written_and_parsed(chart, text):
    svg = _CHARTS[chart](text, text, text)
    root = ElementTree.fromstring(svg.encode("utf-8"))
    assert sum(node.text == text for node in root.iter("{http://www.w3.org/2000/svg}text")) == 3


def test_whole_documents_keep_their_bytes():
    # digests of the text before the two chart kinds shared one frame: a moved byte anywhere fails here
    spread = np.random.default_rng(29).beta(2.0, 5.0, size=200)
    violins = violin_svg([("spread", spread), ("flat", np.full(6, 0.25)), ("copy", spread.copy())],
                         "Violins & <bars>", "Brier score")
    bars = figures.bar_svg([("zero", 0.0), ("p>0", 0.375)], "Bars", "P(gap > 0)")
    for svg, size, digest in (
        (violins, 7679, "49fd39cd2976e7ca78ed3a3fdf41f2944c624d3c402a430735c3124eb229e8cf"),
        (bars, 2383, "8d3aa547a92182dcc06dbff1d563a0d90fe9f4dbf8a1b9c9e4226bd29aae0f44"),
    ):
        root = ElementTree.fromstring(svg.encode("utf-8"))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert (len(svg), hashlib.sha256(svg.encode("utf-8")).hexdigest()) == (size, digest)
    assert violins.count("<polygon ") == 2 and violins.count('height="3"') == 1
    assert bars.count('transform="rotate(-55 ') == 2
