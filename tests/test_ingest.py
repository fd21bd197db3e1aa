from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import (
    DataFormatError,
    ObservationTable,
    SingularDesignError,
    joint_pvalue,
    ols_mediation_fit,
    read_observations,
)
from twostage.ingest import _ols


def synthetic_table(n=5000, gamma=0.8, beta=0.5, noise=1.0, noise_m=None, seed=0, d=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    a = rng.normal(size=n)
    noise_m = noise if noise_m is None else noise_m
    m = 0.4 + x @ rng.normal(size=d) + gamma * a + noise_m * rng.normal(size=n)
    y = -0.2 + x @ rng.normal(size=d) + 0.3 * a + beta * m + noise * rng.normal(size=n)
    return ObservationTable(x=x, a=a, m=m, y=y)


class TestOls:
    def test_matches_lstsq_and_classical_standard_errors(self):
        rng = np.random.default_rng(21)
        design = np.column_stack([np.ones(400), rng.normal(size=(400, 4))])
        response = design @ rng.normal(size=5) + rng.normal(size=400)
        coef, se = _ols(design, response)
        want, rss, _, _ = np.linalg.lstsq(design, response, rcond=None)
        np.testing.assert_allclose(coef, want, rtol=1e-12, atol=1e-14)
        s2 = rss[0] / (400 - 5)
        np.testing.assert_allclose(se, np.sqrt(s2 * np.diag(np.linalg.inv(design.T @ design))), rtol=1e-10)

    def test_rank_deficient_design_is_singular(self):
        design = np.column_stack([np.ones(50), np.arange(50.0), 2.0 * np.arange(50.0)])
        with pytest.raises(SingularDesignError):
            _ols(design, np.arange(50.0))


class TestOlsMediationFit:
    def test_generative_round_trip(self):
        table = synthetic_table(n=10_000, gamma=0.8, beta=0.5, seed=1)
        pair = ols_mediation_fit(table)
        se_gamma = pair.sigma_gamma / np.sqrt(pair.n)
        se_beta = pair.sigma_beta / np.sqrt(pair.n)
        assert abs(pair.gamma_hat - 0.8) < 4.0 * se_gamma
        assert abs(pair.beta_hat - 0.5) < 4.0 * se_beta
        assert pair.n == 10_000

    def test_zero_noise_recovers_exactly(self):
        # with exactly zero mediator noise the outcome design would be
        # perfectly collinear (m lies in the span of 1, x, a), so use a
        # vanishing mediator noise and a noiseless outcome equation
        table = synthetic_table(n=500, gamma=0.8, beta=0.5, noise=0.0, noise_m=1e-8, seed=2)
        pair = ols_mediation_fit(table)
        assert abs(pair.gamma_hat - 0.8) < 1e-8
        assert abs(pair.beta_hat - 0.5) < 1e-8
        assert joint_pvalue(pair) < 1e-12

    def test_exactly_collinear_mediator_is_singular(self):
        # the fully noiseless model: m in span(1, x, a) makes the outcome fit
        # rank deficient, which must surface rather than return garbage
        table = synthetic_table(n=500, noise=0.0, noise_m=0.0, seed=2)
        with pytest.raises(SingularDesignError):
            ols_mediation_fit(table)

    def test_duplicated_covariate_is_singular(self):
        table = synthetic_table(n=200, seed=3, d=1)
        bad = ObservationTable(
            x=np.column_stack([table.x[:, 0], table.a]), a=table.a, m=table.m, y=table.y
        )
        with pytest.raises(SingularDesignError):
            ols_mediation_fit(bad)

    def test_affine_equivariance_in_mediator(self):
        table = synthetic_table(n=2000, seed=4)
        shifted = ObservationTable(x=table.x, a=table.a, m=table.m + 10.0, y=table.y)
        base = ols_mediation_fit(table)
        moved = ols_mediation_fit(shifted)
        assert abs(base.gamma_hat - moved.gamma_hat) < 1e-10
        assert abs(base.beta_hat - moved.beta_hat) < 1e-10

    def test_residual_orthogonality(self):
        table = synthetic_table(n=1000, seed=5)
        design = np.hstack([np.ones((table.n, 1)), table.x, table.a[:, None]])
        coef, *_ = np.linalg.lstsq(design, table.m, rcond=None)
        resid = table.m - design @ coef
        rel = np.abs(design.T @ resid) / (np.linalg.norm(design, axis=0) * np.linalg.norm(resid))
        assert np.all(rel < 1e-8)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ObservationTable(x=np.zeros((3, 1)), a=np.zeros(3), m=np.zeros(3), y=np.zeros(3))


class TestReadObservations(object):
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_reads_comma_file(self, tmp_path):
        path = self._write(tmp_path, "x1,a,m,y\n0.1,1.0,2.0,3.0\n0.2,1.5,2.5,3.5\n-0.1,0.5,1.0,0.0\n0,0,0,1\n")
        table = read_observations(path)
        assert table.n == 4 and table.d == 1
        assert table.a[1] == pytest.approx(1.5)

    def test_reads_whitespace_file(self, tmp_path):
        path = self._write(tmp_path, "a m y\n1 2 3\n4 5 6\n7 8 9\n", name="data.txt")
        table = read_observations(path)
        assert table.d == 0
        assert table.m.tolist() == [2.0, 5.0, 8.0]

    def test_missing_column_named(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(DataFormatError, match="'m'"):
            read_observations(path)

    def test_non_numeric_field_line_numbered(self, tmp_path):
        path = self._write(tmp_path, "a,m,y\n1,2,3\n1,zap,3\n4,5,6\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_observations(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,m,y,frog\n1,2,3,4\n")
        with pytest.raises(DataFormatError, match="frog"):
            read_observations(path)

    def test_gapped_covariates_rejected(self, tmp_path):
        path = self._write(tmp_path, "x2,a,m,y\n1,1,2,3\n")
        with pytest.raises(DataFormatError, match="x1..xd"):
            read_observations(path)

    def test_field_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "a,m,y\n1,2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_observations(path)

    # Blank and whitespace-only lines are skipped but still counted, so an
    # error names the line of the file.  Non-finite cells are refused, and so
    # are spellings that float() reads but np.loadtxt does not.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,m,y\n\n1,2,3\n\n4,x,6\n7,8,9\n", "line 5: non-numeric field 'x'"),
            ("a,m,y\n \n1,2,3\n\t\n4,5\n7,8,9\n", "line 5: expected 3 fields, found 2"),
            ("\n\na,m\n1,2\n", "line 3: missing required column 'y'"),
            ("a m y\n\n1 2 3\n   \n4 5 6 7\n", "line 5: expected 3 fields, found 4"),
            ("a,m,y\n1,2,3\n\n4,nan,6\n7,8,9\n", "line 4: non-finite field 'nan'"),
            ("a,m,y\n1,2,3\n\n4,5,-Infinity\n7,8,9\n", "line 4: non-finite field '-Infinity'"),
            ("a;m;y\n1;2;3\n\n1e400;5;6\n7;8;9\n", "line 4: non-finite field '1e400'"),
            ("a,m,y\n1,2,3\n4,1_000,6\n7,8,9\n", "line 3: non-numeric field '1_000'"),
            ("a,m,y\n1,2,3\n4,\u0661\u0662,6\n7,8,9\n", "line 3: non-numeric field '\u0661\u0662'"),
            ("a,m,y\n1,2,3\n4,5,6\n7,8,\uff19\n", "line 4: non-numeric field '\uff19'"),
        ],
    )
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            read_observations(self._write(tmp_path, text))

    def test_multi_character_delimiter(self, tmp_path):
        path = self._write(tmp_path, "a::m::y\n1::2::3\n4::5::6\n7::8::9.5\n")
        table = read_observations(path, delimiter="::")
        assert table.y.tolist() == [3.0, 6.0, 9.5]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(0, 2),
        extra_rows=st.integers(0, 5),
        delimiter=st.sampled_from([",", ";", "\t", " "]),
        data=st.data(),
    )
    def test_any_finite_table_reads_back_exactly(self, tmp_path_factory, d, extra_rows, delimiter, data):
        columns = [f"x{i}" for i in range(1, d + 1)] + ["a", "m", "y"]
        cells = data.draw(
            st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(columns), max_size=len(columns)),
                min_size=d + 3 + extra_rows,
                max_size=d + 3 + extra_rows,
            )
        )
        lines = [delimiter.join(columns)] + [delimiter.join(repr(v) for v in row) for row in cells]
        filler = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)
        text = "".join(
            "".join(line + "\n" for line in data.draw(filler)) + line + "\n" for line in lines
        )
        path = tmp_path_factory.mktemp("table") / "data.txt"
        path.write_text(text, encoding="utf-8")
        # A valid table must be read by the one loadtxt pass alone.
        with mock.patch("twostage.ingest._read_rows", side_effect=AssertionError("line-by-line reader used")):
            table = read_observations(str(path))
        want = np.array([[float(repr(v)) for v in row] for row in cells])
        got = np.column_stack([table.x, table.a, table.m, table.y])
        assert got.tobytes() == want.tobytes()

    def test_fit_from_file_round_trip(self, tmp_path):
        table = synthetic_table(n=400, seed=6, d=1)
        lines = ["x1,a,m,y"]
        for i in range(table.n):
            lines.append(",".join(repr(float(v)) for v in (table.x[i, 0], table.a[i], table.m[i], table.y[i])))
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        direct = ols_mediation_fit(table)
        via_file = ols_mediation_fit(read_observations(path))
        assert direct.gamma_hat == pytest.approx(via_file.gamma_hat, abs=1e-12)
        assert direct.sigma_beta == pytest.approx(via_file.sigma_beta, abs=1e-12)
