"""The C-level paths of weighted_sum, WeightedSample and read_data against
the per-observation loops they replace, kept here verbatim as references;
and weighted_sum on the seven affine family rows, q(t) (S - W g(t)) from
sums taken once per sample, against the same loop, by sign.

weighted_sum sums a sample of at least _ADD_IN_C_MIN unit weights by _add
where no clamp applies, the sample checks its weights and its domain with
all(map(...)), and a data file of plain numbers goes through float without
a split per line.  Each
property below holds the new code to the old bit for bit: floats are
compared by repr (so -0.0 is told from 0.0 and NaN matches NaN), errors by
type, message and line.  The one departure: where the old reader ended in a
UnicodeDecodeError on a file that is not UTF-8, read_data raises a
DataParseError naming a line.
"""

import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import FAMILY_ROWS
from psiest import (
    DataParseError,
    EmptyData,
    FamilySpec,
    InvalidArgument,
    NegativeWeight,
    OpenInterval,
    PsiKernel,
    WeightedSample,
    make_kernel,
    solve_sign_change,
    weighted_sum,
)
from psiest.cli import read_data
from psiest.kernel import _ADD_IN_C_MIN, _CAP, _add

LINE = OpenInterval(-math.inf, math.inf)


# --------------------------------------------------------------------------
# The references, verbatim but for their names.

def reference_weighted_sum(kernel: PsiKernel, sample: WeightedSample, t: float) -> float:
    theta = kernel.theta
    if not theta.lo < t < theta.hi:  # theta.contains(t), inline on this hot path
        kernel.check_parameter(t)
    # sample.columns(kernel), its two lookups inline on this hot path
    cs = None
    if kernel.domain_check in sample._passed:
        cs = sample._columns.get(kernel.column)
    if cs is None:
        cs = sample.columns(kernel)
    total = 0.0
    for v, w in zip(kernel.terms(cs, t), sample._live_weights):
        if v > _CAP:
            v = _CAP
        elif v < -_CAP:
            v = -_CAP
        v *= w
        if v > _CAP:
            v = _CAP
        elif v < -_CAP:
            v = -_CAP
        total += v
    return _CAP if total > _CAP else -_CAP if total < -_CAP else total  # _clamp(total)


def reference_add(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def reference_sample(xs, weights):
    """WeightedSample.__post_init__ on (xs, weights): the live xs and
    weights it keeps, or what it raises."""
    xs = tuple(map(float, xs))
    weights = tuple(map(float, weights))
    if len(xs) != len(weights):
        raise InvalidArgument("xs and weights must have equal length")
    if len(xs) == 0:
        raise InvalidArgument("sample must contain at least one observation")
    if not all(0.0 <= w < math.inf for w in weights):
        raise InvalidArgument("weights must be finite and nonnegative")
    if not max(weights) > 0.0:
        raise InvalidArgument("at least one weight must be positive")
    ws = weights
    if 0.0 in ws:  # else the live terms are xs and weights themselves
        xs = tuple(x for x, w in zip(xs, ws) if w > 0.0)
        ws = tuple(w for w in ws if w > 0.0)
    return xs, ws


def reference_check(self, kernel: PsiKernel) -> None:
    if kernel.domain_check in self._passed:
        return
    for x in self.xs:
        kernel.check_observation(x)
    self._passed.add(kernel.domain_check)


def reference_records(path: str):
    """(line number, text) of each record line: `#` comments, blanks skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def reference_read_data(source, weights_path=None) -> WeightedSample:
    xs: list[float] = []
    ws: list[float] = []
    if source.strip().startswith("["):
        body = source.strip()
        if not body.endswith("]"):
            raise DataParseError(1, "inline literal must end with ']'")
        inner = body[1:-1].strip()
        if not inner:
            raise EmptyData("inline literal is empty")
        for part in inner.split(","):
            try:
                xs.append(float(part))
            except ValueError:
                raise DataParseError(1, f"bad number {part.strip()!r}") from None
            ws.append(1.0)
    else:
        for lineno, line in reference_records(source):
            cols = [c.strip() for c in line.split(",")]
            if len(cols) > 2:
                raise DataParseError(lineno, "expected `value` or `value,weight`")
            try:
                x = float(cols[0])
                w = float(cols[1]) if len(cols) == 2 else 1.0
            except ValueError:
                raise DataParseError(lineno, f"bad number in {line!r}") from None
            if w < 0.0:
                raise NegativeWeight(lineno)
            xs.append(x)
            ws.append(w)
        if not xs:
            raise EmptyData(f"no records in {source}")
    if weights_path is not None:
        ws = []
        for lineno, line in reference_records(weights_path):
            try:
                w = float(line)
            except ValueError:
                raise DataParseError(lineno, f"bad weight {line!r}") from None
            if w < 0.0:
                raise NegativeWeight(lineno)
            ws.append(w)
        if len(ws) != len(xs):
            raise DataParseError(len(ws), "weights file length mismatch")
    return WeightedSample(tuple(xs), tuple(ws))


def outcome(fn):
    """repr of what fn returns, or the type, message and line of what it
    raises."""
    try:
        return repr(fn())
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc), getattr(exc, "line", None))


# --------------------------------------------------------------------------
# weighted_sum and _add

BIG = math.nextafter(_CAP, math.inf)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1.0, -1.0, 0.1, 3.5, -7.25, 1e300, -1e300, 5e299, -5e299, BIG, -BIG,
           1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan)
# the special values twice as often as the rest
TERMS = st.one_of(st.sampled_from(SPECIAL), st.sampled_from(SPECIAL),
                  st.floats(allow_nan=False), st.floats(-1e3, 1e3))


@st.composite
def sums(draw):
    """(terms, weights): fewer or at least _ADD_IN_C_MIN terms, with a NaN
    at the start, middle or end or none, and unit, integer or zero weights,
    at least one positive."""
    size = draw(st.one_of(st.integers(1, _ADD_IN_C_MIN - 1),
                          st.integers(_ADD_IN_C_MIN, 2 * _ADD_IN_C_MIN)))
    vs = draw(st.lists(TERMS, min_size=size, max_size=size))
    where = draw(st.sampled_from((None, None, 0, len(vs) // 2, len(vs))))
    if where is not None:
        vs.insert(where, math.nan)
    pool = draw(st.sampled_from(((1.0,), (0.0, 1.0), (0.0, 1.0, 2.0, 3.0, 7.0))))
    ws = draw(st.lists(st.sampled_from(pool), min_size=len(vs),
                       max_size=len(vs)).filter(any))
    return vs, ws


PAD = [0.0] * (_ADD_IN_C_MIN - 2)  # enough terms to reach the C path
UNIT = [1.0] * _ADD_IN_C_MIN


class TestWeightedSum:
    @settings(max_examples=600, deadline=None)
    @given(sums(), st.sampled_from((0.0, -1.0, 2.5)), st.sampled_from((list, tuple, iter)))
    # a clamp that cancels at +-1e300, each side; NaN ahead of a clamped term
    @example(([-BIG, 1e300] + PAD, UNIT), 0.0, list)
    @example(([math.inf, -1e300] + PAD, UNIT), 0.0, list)
    @example(([math.nan, 1e308, -1e308] + PAD[1:], UNIT), 0.0, list)
    # terms that min would use up before max and _add read them
    @example(([1.0, 2.0] + PAD, UNIT), 0.0, iter)
    # one weight of 2.0 among ones
    @example(([1.0, 2.0] + PAD, UNIT[1:] + [2.0]), 0.0, list)
    def test_same_float_as_the_loop(self, case, t, container):
        vs, ws = case
        # x indexes the drawn term: psi(i, t) is vs[i]; terms returns them
        # in a list, a tuple or a one-shot iterator
        kernel = PsiKernel(LINE, lambda x, t: vs[int(x)],
                           terms=lambda cs, t: container([vs[int(x)] for x in cs]))
        xs = [float(i) for i in range(len(vs))]
        got = outcome(lambda: weighted_sum(kernel, WeightedSample(xs, ws), t))
        want = outcome(lambda: reference_weighted_sum(
            kernel, WeightedSample(xs, ws), t))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TERMS, max_size=12))
    def test_add_is_the_loop(self, vs):
        assert repr(_add(vs)) == repr(reference_add(vs))
        assert repr(_add(iter(vs))) == repr(reference_add(vs))


# --------------------------------------------------------------------------
# The affine rows: q(t) (S - W g(t)) against the loop, by sign

EPS = 2.0 ** -52
AFFINE_ROWS = [row for row in FAMILY_ROWS if row[1] is not None
               and make_kernel(FamilySpec(row[0], {row[1]: row[2][0]}))._affine]


@st.composite
def affine_cases(draw):
    """(kernel, xs, weights, t) on an affine row: observations that often
    repeat one value, unit, integer, zero and fractional weights, and t
    within a few ulps of the root (where the sum cancels), anywhere in a
    wide range, or so small or large that t t underflows or overflows."""
    family, key, known, (lo, hi) = draw(st.sampled_from(AFFINE_ROWS))
    kernel = make_kernel(FamilySpec(family, {key: draw(st.floats(*known))}))
    n = draw(st.integers(1, 12))
    base = draw(st.floats(lo, hi))
    xs = tuple(draw(st.lists(st.one_of(st.just(base), st.floats(lo, hi)),
                             min_size=n, max_size=n)))
    ws = tuple(draw(st.lists(st.one_of(st.sampled_from((0.0, 1.0, 2.0, 3.0)),
                                       st.floats(1e-3, 1e3)),
                             min_size=n, max_size=n).filter(any)))
    positive = kernel.theta.lo == 0.0
    kind = draw(st.sampled_from(("root", "wide", "extreme")))
    if kind == "root":
        root = solve_sign_change(kernel, WeightedSample(xs, ws)).theta
        t = root * (1.0 + draw(st.integers(-40, 40)) * EPS)
    elif kind == "wide":
        t = draw(st.floats(1e-3, 60.0) if positive else st.floats(-60.0, 60.0))
    else:
        t = draw(st.sampled_from((1e-300, 1e-160, 5e-324, 1e150, 1e300) if positive
                                 else (-1e300, -1e150, 1e150, 1e300)))
    return kernel, xs, ws, t


class TestAffineSum:
    @settings(max_examples=400, deadline=None)
    @given(affine_cases())
    def test_sign_of_the_loop(self, case):
        """Where either raises, both raise the same class.  Where no term is
        clamped and the loop's sum is clear of the two sums' rounding, the
        affine sum has its sign.  The loop rounds on the
        scale n eps sum |w psi|; the affine sum on eps |q| (sum w |F| +
        W |g|), from rounding S and W g(t) before they cancel, so it alone
        decides a sum within that of 0 (observations and t within a few ulps
        of each other)."""
        kernel, xs, ws, t = case
        got = outcome(lambda: weighted_sum(kernel, WeightedSample(xs, ws), t))
        want = outcome(lambda: reference_weighted_sum(kernel, WeightedSample(xs, ws), t))
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got[:2] == want[:2]
            return
        got, want = float(got), float(want)
        sample = WeightedSample(xs, ws)
        live = sample._live_weights
        cs = sample.columns(kernel)
        weighted = [w * v for v, w in zip(kernel.terms(cs, t), live)]
        if not all(abs(v) <= _CAP for v in weighted):
            return  # the loop clamps a term: its sum is not psi's
        q, g = kernel._affine
        scale = (len(live) * EPS * math.fsum(map(abs, weighted))
                 + 4.0 * EPS * abs(q(t)) * (math.fsum(abs(w * c) for c, w in zip(cs, live))
                                            + math.fsum(live) * abs(g(t))))
        if abs(want) > scale:
            # the solver reads value > 0 alone
            assert (got > 0.0) == (want > 0.0)
            # where t t overflows, q(t) = 1/(t t) is 0 and so is the affine
            # sum, not positive, as the loop's terms are (their t t overflows
            # too), but no longer negative
            if q(t) != 0.0:
                assert (got < 0.0) == (want < 0.0)

    @pytest.mark.parametrize("family,params,xs,ws", [
        ("gamma_rate", {"p": 2.0}, (1e308, 1e308), (1.0, 1.0)),  # fsum overflows
        ("lognormal_mu", {"sigma2": 1.0}, (1e300, 1e-300), (1e308, 1e308)),  # inf - inf
        ("lognormal_mu", {"sigma2": 1.0}, (math.inf, 2.0), (1.0, 1.0)),  # an inf column
        ("laplace_scale", {"mu": 0.0}, (1.0, 2.0), (1e308, 1e308)),  # W overflows
        ("lomax_shape_alpha", {"lambda": 1.0}, (math.inf, 1.0, 1.0), (1.0, 0.0, 2.0)),
    ])
    def test_loop_where_the_sums_are_not_finite(self, family, params, xs, ws):
        kernel = make_kernel(FamilySpec(family, params))
        sample = WeightedSample(xs, ws)
        for t in (0.5, 1.0, 3.0, 1e300):
            got = outcome(lambda: weighted_sum(kernel, sample, t))
            assert got == outcome(lambda: reference_weighted_sum(
                kernel, WeightedSample(xs, ws), t))
        assert sample._sums == {kernel.column: None}

    @pytest.mark.parametrize("family,params", [
        ("normal_var", {"m": 0.0}), ("laplace_scale", {"mu": 0.0})])
    def test_raises_where_t_t_underflows(self, family, params):
        # q = 1/(t t) raises where the terms' division by t t raises
        kernel = make_kernel(FamilySpec(family, params))
        for t in (1e-170, 5e-324):
            want = outcome(lambda: reference_weighted_sum(
                kernel, WeightedSample.uniform((2.0, 3.0)), t))
            got = outcome(lambda: weighted_sum(kernel, WeightedSample.uniform((2.0, 3.0)), t))
            assert got == want and got[1] == "ZeroDivisionError"

    def test_fsum_raises_where_the_loop_does_not(self):
        # why the sums fall back: fsum raises on these
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])

    def test_loop_where_the_affine_sum_is_nan(self):
        # t t overflows, so q(t) is 0, and W t overflows: 0 (-inf) is NaN
        kernel = make_kernel(FamilySpec("normal_var", {"m": 0.0}))
        xs, ws = (1.5, 2.0), (1e10, 1e10)
        sample = WeightedSample(xs, ws)
        got = weighted_sum(kernel, sample, 1e300)
        assert sample._sums[kernel.column] is not None
        assert repr(got) == repr(reference_weighted_sum(kernel, WeightedSample(xs, ws), 1e300))
        assert not math.isnan(got)


# --------------------------------------------------------------------------
# WeightedSample: its weights and its domain check

WEIGHT_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 1.0, 2.0, 0.5, 5e-324, 1e308, -1.0,
                     -5e-324, math.inf, -math.inf, math.nan)),
    st.floats())


class TestWeightedSample:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(WEIGHT_VALUES, max_size=2 * _ADD_IN_C_MIN))
    # unit weights either side of _ADD_IN_C_MIN, counted before and after a zero
    @example(UNIT)
    @example(UNIT[1:])
    @example(UNIT + [0.0])
    @example([0.0] + UNIT[1:])
    @example(UNIT + [2.0])
    def test_weights_checked_as_before(self, ws):
        xs = [float(i) for i in range(len(ws))]
        got = outcome(lambda: WeightedSample(xs, ws))
        want = outcome(lambda: reference_sample(xs, ws))
        if want[0] == "raises":
            assert got == want
            return
        s = WeightedSample(xs, ws)
        assert repr((s._live_xs, s._live_weights)) == want
        live = s._live_weights
        assert s._add_in_c == (len(live) >= _ADD_IN_C_MIN and all(w == 1.0 for w in live))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, -3.0, 2.0,
                                               math.inf, -math.inf, math.nan)),
                              st.floats()), min_size=1, max_size=8),
           st.sampled_from((math.isfinite, lambda x: x > 0.0,
                            lambda x: 0.0 < x < 1.0, lambda x: 1.0 / x > 0.0)))
    def test_check_raises_as_before(self, xs, domain_check):
        kernel = PsiKernel(LINE, lambda x, t: x - t, domain_check=domain_check)
        s, ref = WeightedSample.uniform(xs), WeightedSample.uniform(xs)
        assert outcome(lambda: s.check(kernel)) == outcome(
            lambda: reference_check(ref, kernel))
        assert s._passed == ref._passed


# --------------------------------------------------------------------------
# read_data

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(("1_000", " 2.5 ", "\t-3", "+4", ".5", "5.", "1e5", "-0.0",
                     "inf", "-Infinity", "nan", "١٢", " 7 ")),
)
LINES = st.one_of(
    NUMBERS,
    NUMBERS,
    st.sampled_from(("", "   ", "\t", "# header", "  # note", "#")),
    st.tuples(NUMBERS, st.sampled_from(("# c", " #c", "#1,2"))).map("".join),
    st.tuples(NUMBERS, st.sampled_from((",", " , ", ", ")),
              st.one_of(NUMBERS, st.sampled_from(("-1", "-0.0", "0")))).map("".join),
    st.sampled_from(("foo", "1 2", ",", "1,2,3", "1,", "1,,", "1\x1c", "\x1c1",
                     "nan,nan", "1_", "--1", "1,x", "1\x1c,2", "2,\x1c1")),
)
ENDINGS = st.sampled_from(("\n", "\r\n", "\r"))


@st.composite
def files(draw, lines=LINES):
    """The bytes of a file: drawn lines, one line ending for the file, a
    final ending or none, and now and then a byte that does not decode."""
    body = draw(st.lists(lines, max_size=10))
    end = draw(ENDINGS)
    data = end.join(body) + (end if body and draw(st.booleans()) else "")
    raw = data.encode("utf-8")
    if body and draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw


WEIGHT_LINES = st.one_of(NUMBERS, st.sampled_from(("", "# w", "-1", "x", "2 # two")))


@st.composite
def inline_literals(draw):
    """An inline literal: drawn parts joined by commas, whitespace or none
    around the brackets, and now and then no closing bracket."""
    parts = draw(st.lists(st.one_of(NUMBERS, st.sampled_from(("", " ", "1e", "1,"))),
                          max_size=6))
    opening = draw(st.sampled_from(("[", " [", "\t[")))
    closing = draw(st.sampled_from(("]", "] ", "]\n", " ]", "")))
    return opening + ",".join(parts) + closing


class TestReadData:
    @settings(max_examples=500, deadline=None)
    @given(inline_literals())
    @example("[ ]")
    @example("[]")
    @example("[1,2")
    @example("[")
    @example("[1,,2]")
    @example("[\x1c1]")
    @example("[1\x1c]")
    @example("[ 1e ]")
    def test_inline_literal_reads_as_before(self, literal):
        got = outcome(lambda: (lambda s: (s.xs, s.weights))(read_data(literal)))
        want = outcome(lambda: (lambda s: (s.xs, s.weights))(
            reference_read_data(literal)))
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(files(), st.one_of(st.none(), files(WEIGHT_LINES)))
    # float strips no \x1c, which str.strip strips from each column
    @example(b"1\x1c,2\n", None)
    def test_file_reads_as_before(self, data, weights):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "data.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            wpath = None
            if weights is not None:
                wpath = os.path.join(d, "weights.txt")
                with open(wpath, "wb") as fh:
                    fh.write(weights)
            got = outcome(lambda: (lambda s: (s.xs, s.weights))(
                read_data(path, wpath)))
            want = outcome(lambda: (lambda s: (s.xs, s.weights))(
                reference_read_data(path, wpath)))
        if want[:2] == ("raises", "UnicodeDecodeError"):
            # read_data names the first line holding a byte that is not
            # UTF-8, or a bad record ahead of it
            assert got[0] == "raises" and isinstance(got[3], int), (got, want)
            assert got[1] in ("DataParseError", "NegativeWeight"), (got, want)
        else:
            assert got == want

    def test_bad_record_ahead_of_undecodable_bytes(self, tmp_path):
        # The old record reader decoded a chunk of some kilobytes at a time,
        # so it reported a bad record well ahead of bytes that do not
        # decode, and failed to decode before a bad record near them.
        # read_data reports the first of the two in line order.
        p = tmp_path / "d.txt"
        p.write_bytes(b"1\nfoo\n" + b"2\n" * 50000 + b"\xff\n")
        want = ("raises", "DataParseError", "line 2: bad number in 'foo'", 2)
        assert outcome(lambda: reference_read_data(str(p))) == want
        assert outcome(lambda: read_data(str(p))) == want
        p.write_bytes(b"1\n" * 50000 + b"\xff\n")
        assert outcome(lambda: read_data(str(p))) == (
            "raises", "DataParseError", "line 50001: not UTF-8 text", 50001)
        p.write_bytes(b"1\nfoo\n\xff\n")
        assert outcome(lambda: reference_read_data(str(p)))[1] == "UnicodeDecodeError"
        assert outcome(lambda: read_data(str(p))) == want

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_undecodable_line_named(self, end, tmp_path):
        # lines split as the reference splits them, at each of its endings
        p = tmp_path / "d.txt"
        p.write_bytes(end.join(["1", "# \xe9", "2", "3"]).encode("utf-8")
                      + end.encode() + b"x\xff" + end.encode())
        assert outcome(lambda: read_data(str(p))) == (
            "raises", "DataParseError", "line 5: not UTF-8 text", 5)
