"""Config parsing, CSV emission, exit codes, determinism."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hlq import cli
from hlq.cli import main, parse_config
from hlq.engines import run, run_compare
from hlq.errors import ConfigParseError, ConfigValidationError, TruncationOverflowError
from hlq.observables import husimi_grid
from hlq.oracles import ground_state_probability
from reference import format_cell, reference_csv_text

SLOW_CONFIG = """\
# slow linear run
model = linear
omega = 1.2566370614
dt = 0.001
steps = 3750
zeta = 0.5
eta = 1
"""

TINY = "model = linear\nomega = 1.2566370614\ndt = 0.005\nsteps = 40\n"

EVERY_KEY = """\
model = two-boson
omega = 3.14159
dt = 0.002
steps = 12
dim = 16
zeta = 0.25
eta = 0.8 - 0.3j
schedule = rotating
engine = both
initial = coherent(0.3+0.2j)
phase = coherence
outputs = final
"""


def write(tmp_path: Path, text: str, name="run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParseConfig:
    def test_slow_config_accepted(self):
        cfg = parse_config(SLOW_CONFIG)
        assert cfg.model == "linear"
        assert cfg.omega == pytest.approx(2 * math.pi / 5, rel=1e-9)
        assert cfg.dt == 0.001
        assert cfg.steps == 3750
        assert cfg.zeta_abs == 0.5
        assert cfg.eta == 1.0 + 0j
        assert cfg.dim == 32
        assert cfg.schedule == "uniform"
        assert cfg.engine == "hidden"
        assert cfg.phase == "operator"

    def test_overrange_zeta_rejected(self):
        with pytest.raises(ConfigValidationError, match="zeta"):
            parse_config(TINY + "zeta = 0.6\n")

    def test_empty_document_lists_required(self):
        with pytest.raises(ConfigValidationError) as info:
            parse_config("")
        for key in ("model", "omega", "dt", "steps"):
            assert key in str(info.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigValidationError, match="frequency"):
            parse_config(TINY + "frequency = 3\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigParseError) as info:
            parse_config("model = linear\nnot a pair\n")
        assert info.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config(TINY + "dt = 0.01\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigParseError, match="omega"):
            parse_config("model = linear\nomega = fast\ndt = 0.1\nsteps = 5\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# lead\n\n" + TINY + "  # trailing comment line\n")
        assert cfg.steps == 40

    def test_inline_comment_stripped(self):
        cfg = parse_config(TINY.replace("steps = 40", "steps = 40  # N"))
        assert cfg.steps == 40

    def test_coherent_initial(self):
        cfg = parse_config(TINY + "initial = coherent(0.3+0.2j)\n")
        assert cfg.initial == "coherent"
        assert cfg.gamma0 == pytest.approx(0.3 + 0.2j)

    def test_bad_initial(self):
        with pytest.raises(ConfigValidationError, match="initial"):
            parse_config(TINY + "initial = squeezed\n")

    def test_outputs_list(self):
        cfg = parse_config(TINY + "outputs = timeseries\n")
        assert cfg.outputs == ("timeseries",)
        with pytest.raises(ConfigValidationError, match="outputs"):
            parse_config(TINY + "outputs = timeseries,plots\n")

    def test_complex_eta(self):
        cfg = parse_config(TINY + "eta = 0.8+0.3j\n")
        assert cfg.eta == pytest.approx(0.8 + 0.3j)

    def test_non_finite_coherent_amplitude_rejected(self, tmp_path):
        for amplitude in ("nan", "inf", "1+nanj"):
            text = TINY + f"initial = coherent({amplitude})\n"
            with pytest.raises(ConfigValidationError, match="initial"):
                parse_config(text)
            cfg = write(tmp_path, text)
            assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1

    def test_schema_keys_match_docs(self):
        documented = cli.__doc__.split("Keys:", 1)[1]
        doc_keys = [line.split()[0] for line in documented.splitlines() if line.strip()]
        readme = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
        table = readme.split("| key ", 1)[1].split("\n\n", 1)[0]
        table_keys = [line.split("`")[1] for line in table.splitlines()
                      if line.startswith("| `")]
        assert doc_keys == list(cli._KEYS)
        assert table_keys == list(cli._KEYS)


class TestRunCommand:
    def test_outputs_and_header(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "timeseries.csv")
        assert ",".join(header) == (
            "step,t,pulse_area_over_pi,p00,mean_n,purity,re_b,im_b,var_x,var_y"
        )
        assert len(rows) == 41
        # vacuum initial row
        first = rows[0]
        assert first[0] == "0" and float(first[3]) == 1.0
        assert float(first[4]) == 0.0 and float(first[5]) == 1.0
        # pulse area column is omega t / pi
        last = rows[-1]
        assert float(last[2]) == pytest.approx(1.2566370614 * 0.2 / math.pi, rel=1e-9)
        assert (out / "final_state.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out-dir", str(out_a)]) == 0
        assert main(["run", cfg, "--out-dir", str(out_b)]) == 0
        for name in ("timeseries.csv", "final_state.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_checksums(self, tmp_path):
        import hashlib

        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        main(["run", cfg, "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["schedule"] == "uniform"
        for name, digest in manifest["outputs"].items():
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_manifest_echoes_every_key(self, tmp_path):
        cfg = write(tmp_path, EVERY_KEY)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {
            "model": "two-boson",
            "omega": "3.14159",
            "dt": "0.002",
            "steps": 12,
            "dim": 16,
            "zeta": "0.25",
            "eta": "(0.8-0.3j)",
            "schedule": "rotating",
            "engine": "both",
            "initial": "coherent",
            "gamma0": "(0.3+0.2j)",
            "phase": "coherence",
            "outputs": "final",
        }
        assert set(manifest["outputs"]) == {"final_state_hidden.csv", "final_state_standard.csv"}

    def test_both_engines_emit_suffixed_files(self, tmp_path):
        cfg = write(tmp_path, TINY + "engine = both\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        for name in (
            "timeseries_hidden.csv",
            "timeseries_standard.csv",
            "final_state_hidden.csv",
            "final_state_standard.csv",
        ):
            assert (out / name).exists()

    def test_final_state_only_output(self, tmp_path):
        cfg = write(tmp_path, TINY + "outputs = final\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        assert not (out / "timeseries.csv").exists()
        header, rows = read_csv(out / "final_state.csv")
        assert header == ["row", "col", "re", "im"]
        assert len(rows) == 32 * 32

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, TINY)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("HLQ_OUT_DIR", str(env_dir))
        assert main(["run", cfg]) == 0
        assert (env_dir / "timeseries.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, TINY)
        monkeypatch.setenv("HLQ_OUT_DIR", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        assert (out / "timeseries.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestExitCodes:
    def test_validation_failure_is_1(self, tmp_path):
        cfg = write(tmp_path, TINY + "zeta = 0.9\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1

    def test_parse_failure_is_1(self, tmp_path):
        cfg = write(tmp_path, "model linear\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1

    def test_truncation_overflow_is_2(self, tmp_path):
        cfg = write(tmp_path, "model = linear\nomega = 0\ndt = 0.01\nsteps = 400\ndim = 6\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2

    # With RuntimeWarning an error in this suite, a numpy warning escaping the CLI fails here.
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_finite_state_is_2(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "model = linear\nomega = 1\ndt = 0.01\nsteps = 3\ndim = 8\n"
                              "eta = 1e308\n")
        assert main([command, cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: trace (nan+nanj) at step 1 is not finite; reduce dt or eta\n")

    def test_non_finite_standard_state_is_2(self, tmp_path, capsys):
        # |eps| dt overflows, so the standard kernel's phases are not finite.
        cfg = write(tmp_path, "model = linear\nomega = 1\ndt = 100\nsteps = 3\ndim = 8\n"
                              "eta = 1e308\nengine = standard\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: trace (nan+nanj) at step 1 is not finite; reduce dt or eta\n")

    @pytest.mark.parametrize("text", [
        "model = linear\nomega = 1e308\ndt = 1\nsteps = 3\n",
        TINY + "initial = coherent(1e200)\n",
    ])
    def test_overflowing_config_is_1(self, tmp_path, text):
        cfg = write(tmp_path, text)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1

    # Only the requested size is computed: no test allocates a run near the cap.
    @pytest.mark.parametrize("steps, nbytes", [
        ("99999999999999999999999", "27999999999999999999999720"),
        ("10000000000", "2800000000000"),
    ])
    def test_run_over_size_cap_is_1_before_allocating(self, tmp_path, capsys, steps, nbytes):
        cfg = write(tmp_path, TINY.replace("steps = 40", f"steps = {steps}"))
        tracemalloc.start()
        try:
            assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            f"error: steps: {steps} steps need {nbytes} bytes of records and schedule, "
            f"over the 1073741824-byte limit\n")
        assert peak < 1_000_000

    @pytest.mark.parametrize("key, value", [
        ("omega", "nan"), ("omega", "1e400"), ("dt", "inf"), ("steps", "1e3"),
        ("steps", "99999999999999999999999"), ("dim", "1"), ("zeta", "nan"), ("eta", "1e400"),
        ("initial", "coherent()"), ("omega", ""), ("dt", "0.005\ndt = 0.01"),
    ])
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, key, value):
        values = {"model": "linear", "omega": "1.2566370614", "dt": "0.005", "steps": "40",
                  key: value}
        cfg = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_config_file_is_3(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 3

    def test_unwritable_out_dir_is_3(self, tmp_path):
        cfg = write(tmp_path, TINY)
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory")
        assert main(["run", cfg, "--out-dir", str(blocker)]) == 3

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8 EiB"), "error: Unable to allocate 8 EiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_out_of_memory_is_1(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run", exhausted)
        cfg = write(tmp_path, TINY)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == line


class TestNoOutputOnFailure:
    """A rejected input or a failed run exits without making --out-dir."""

    OVERFLOW = "model = linear\nomega = 0\ndt = 0.01\nsteps = 400\ndim = 6\n"

    @pytest.mark.parametrize("command, text, flags, code", [
        ("run", OVERFLOW, (), 2),
        ("run", OVERFLOW + "engine = both\n", (), 2),
        ("compare", OVERFLOW, (), 2),
        ("converge", OVERFLOW, ("--halvings", "2"), 2),
        ("husimi", OVERFLOW, ("--grid", "5"), 2),
        ("husimi", TINY + "dim = 12\n", ("--grid", "100000"), 1),
        ("husimi", TINY + "dim = 12\n", ("--extent", "1e200", "--grid", "3"), 1),
        ("husimi", TINY, ("--steps", "0,99"), 1),
    ], ids=["run", "run-both", "compare", "converge", "husimi-overflow", "husimi-grid",
            "husimi-extent", "husimi-steps"])
    def test_out_dir_not_made(self, tmp_path, command, text, flags, code):
        cfg = write(tmp_path, text)
        out = tmp_path / "absent" / "o"
        assert main([command, cfg, "--out-dir", str(out), *flags]) == code
        assert not (tmp_path / "absent").exists()

    # With engine = both, the standard run fails after the hidden one succeeded.
    def test_both_engines_run_before_writing(self, tmp_path, monkeypatch):
        def second_fails(config, *args, **kwargs):
            if config.engine == "standard":
                raise TruncationOverflowError(7, 2e-6)
            return run(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run", second_fails)
        cfg = write(tmp_path, TINY + "engine = both\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_sweep_writes_manifest_but_no_failed_value_dir(self, tmp_path):
        cfg = write(tmp_path, "model = linear\nomega = 0\ndt = 0.01\nsteps = 10\ndim = 8\n")
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out), "--param", "steps",
                     "--values", "10,600"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["status"] for e in manifest["results"]] == ["ok", "failed"]
        assert (out / "steps=10" / "timeseries.csv").exists()
        assert not (out / "steps=600").exists()


class TestCompareCommand:
    def test_inert_drive_zero_distance(self, tmp_path):
        cfg = write(tmp_path, TINY + "eta = 0\n")
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "compare.csv")
        assert ",".join(header) == "step,t,p00_hidden,p00_standard,p00_oracle,trace_distance"
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_oracle_column_matches_function(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        main(["compare", cfg, "--out-dir", str(out)])
        _, rows = read_csv(out / "compare.csv")
        omega = 1.2566370614
        for row in rows[:: len(rows) // 7]:
            t = float(row[1])
            assert float(row[4]) == pytest.approx(
                ground_state_probability(0.5, omega, t), rel=1e-10
            )

    def test_engines_agree_on_short_run(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        main(["compare", cfg, "--out-dir", str(out)])
        _, rows = read_csv(out / "compare.csv")
        assert max(float(r[5]) for r in rows) <= 0.02


class TestConvergeCommand:
    def test_rows_and_monotone_deviations(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["converge", cfg, "--out-dir", str(out), "--halvings", "2"]) == 0
        header, rows = read_csv(out / "converge.csv")
        assert header == ["dt", "final_trace_distance", "ratio"]
        assert len(rows) == 3
        dts = [float(r[0]) for r in rows]
        assert dts[1] == pytest.approx(dts[0] / 2)
        assert dts[2] == pytest.approx(dts[0] / 4)
        dists = [float(r[1]) for r in rows]
        assert dists[0] > dists[1] > dists[2]
        assert rows[0][2] == ""
        for row in rows[1:]:
            assert 1.7 <= float(row[2]) <= 2.3

    def test_halvings_floor(self, tmp_path):
        cfg = write(tmp_path, TINY)
        assert main(["converge", cfg, "--out-dir", str(tmp_path / "o"), "--halvings", "1"]) == 1

    # 40 * 2**17 steps fit no run; 2**5000 is past the float range of dt / 2**halvings.
    @pytest.mark.parametrize("halvings, message", [
        ("17", "error: steps: 5242880 steps need 1468006400 bytes"),
        ("5000", "error: halvings: steps * 2**5000 steps are over the run-size limit"),
    ])
    def test_finest_halving_checked_before_the_first_run(self, tmp_path, capsys, monkeypatch,
                                                         halvings, message):
        calls = []
        monkeypatch.setattr(cli, "run_compare", lambda *a, **k: calls.append(a))
        cfg = write(tmp_path, TINY)
        assert main(["converge", cfg, "--out-dir", str(tmp_path / "o"),
                     "--halvings", halvings]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert calls == []


class TestHusimiCommand:
    def test_vacuum_snapshot_peak(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        assert main([
            "husimi", cfg, "--out-dir", str(out), "--steps", "0", "--grid", "41",
        ]) == 0
        header, rows = read_csv(out / "husimi_step0.csv")
        assert header == ["x", "y", "q"]
        assert len(rows) == 41 * 41
        best = max(rows, key=lambda r: float(r[2]))
        assert float(best[0]) == 0.0 and float(best[1]) == 0.0
        assert abs(float(best[2]) - 1.0 / math.pi) <= 1e-9

    def test_default_snapshots_and_trajectory(self, tmp_path):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["husimi", cfg, "--out-dir", str(out), "--grid", "21"]) == 0
        for step in (0, 20, 40):
            assert (out / f"husimi_step{step}.csv").exists()
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "re_b", "im_b"]
        assert len(rows) == 41

    def test_out_of_range_snapshot_rejected(self, tmp_path):
        cfg = write(tmp_path, TINY)
        assert main([
            "husimi", cfg, "--out-dir", str(tmp_path / "o"), "--steps", "0,99",
        ]) == 1

    @pytest.mark.parametrize("extent", ["nan", "inf"])
    def test_non_finite_extent_rejected(self, tmp_path, extent):
        cfg = write(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["husimi", cfg, "--out-dir", str(out), f"--extent={extent}"]) == 1
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("flags, message", [
        (("--extent", "1e200", "--grid", "3"), "husimi extent 1e+200 is too wide for dim 12"),
        (("--grid", "100000"), "husimi grid 100000 x 100000 at dim 12 needs 1920000000000 bytes"),
    ])
    def test_window_too_wide_or_large_is_1(self, tmp_path, capsys, flags, message):
        cfg = write(tmp_path, TINY + "dim = 12\n")
        out = tmp_path / "o"
        assert main(["husimi", cfg, "--out-dir", str(out), "--steps", "0", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("flags", [("--grid", "100000"), ("--extent", "1e200", "--grid", "3"),
                                       ("--grid", "1"), ("--extent", "-1")])
    def test_window_rejected_before_the_run(self, tmp_path, monkeypatch, flags):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        cfg = write(tmp_path, TINY + "dim = 12\n")
        assert main(["husimi", cfg, "--out-dir", str(tmp_path / "o"), *flags]) == 1
        assert calls == []

    def test_wide_extent_that_fits_dim_still_written(self, tmp_path):
        cfg = write(tmp_path, TINY + "dim = 12\n")
        out = tmp_path / "o"
        assert main(["husimi", cfg, "--out-dir", str(out), "--steps", "0", "--extent", "40",
                     "--grid", "3"]) == 0
        _, rows = read_csv(out / "husimi_step0.csv")
        assert [r[2] for r in rows] == ["0"] * 4 + [format_cell(1.0 / math.pi)] + ["0"] * 4


class TestCsvText:
    """Each CSV is its in-memory table, one row per line, every cell formatted by format_cell."""

    CONFIG = ("model = linear\nomega = 1.3\ndt = 0.01\nsteps = 12\ndim = 8\n"
              "eta = 0.8-0.3j\nschedule = rotating\ninitial = coherent(0.3+0.1j)\n")

    @staticmethod
    def assert_text(path: Path, header: str, rows) -> None:
        lines = [",".join(c if isinstance(c, str) else format_cell(c) for c in row)
                 for row in rows]
        assert path.read_text() == "\n".join([header, *lines]) + "\n"

    def setup(self, tmp_path, command, *flags):
        cfg = write(tmp_path, self.CONFIG)
        out = tmp_path / command
        assert main([command, cfg, "--out-dir", str(out), *flags]) == 0
        return out, parse_config(self.CONFIG)

    def test_run_files(self, tmp_path):
        out, config = self.setup(tmp_path, "run")
        res = run(config)
        r = res.records
        self.assert_text(
            out / "timeseries.csv",
            "step,t,pulse_area_over_pi,p00,mean_n,purity,re_b,im_b,var_x,var_y",
            zip(r.step.tolist(), r.t.tolist(), (config.omega * r.t / math.pi).tolist(),
                r.p00.tolist(), r.mean_n.tolist(), r.purity.tolist(), r.mean_b.real.tolist(),
                r.mean_b.imag.tolist(), r.var_x.tolist(), r.var_y.tolist()))
        rho = res.final  # row-major: the column index runs fastest
        self.assert_text(out / "final_state.csv", "row,col,re,im",
                         [(i, j, rho[i, j].real, rho[i, j].imag)
                          for i in range(config.dim) for j in range(config.dim)])

    def test_husimi_files(self, tmp_path):
        out, config = self.setup(tmp_path, "husimi", "--steps", "0,7", "--grid", "4",
                                 "--extent", "1.5")
        res = run(config, snapshot_steps={0, 7})
        for step in (0, 7):
            grid = husimi_grid(res.snapshots[step], 1.5, 4)
            # y outer, x inner
            self.assert_text(out / f"husimi_step{step}.csv", "x,y,q",
                             [(grid.x[ix], grid.y[iy], grid.values[iy, ix])
                              for iy in range(4) for ix in range(4)])
        r = res.records
        self.assert_text(out / "trajectory.csv", "t,re_b,im_b",
                         zip(r.t.tolist(), r.mean_b.real.tolist(), r.mean_b.imag.tolist()))

    def test_compare_file(self, tmp_path):
        out, config = self.setup(tmp_path, "compare")
        res = run_compare(config)
        h, s = res.records_hidden, res.records_standard
        self.assert_text(
            out / "compare.csv", "step,t,p00_hidden,p00_standard,p00_oracle,trace_distance",
            [(int(h.step[j]), t, h.p00[j], s.p00[j],
              ground_state_probability(config.eps_eff, config.omega, t), res.trace_distances[j])
             for j, t in enumerate(h.t.tolist())])

    def test_converge_file(self, tmp_path):
        out, config = self.setup(tmp_path, "converge", "--halvings", "2")
        rows, prev = [], None
        for i in range(3):
            sub = replace(config, dt=config.dt / 2**i, steps=config.steps * 2**i)
            dist = run_compare(sub, per_step_distance=False).trace_distances[-1]
            rows.append((sub.dt, dist, "" if prev is None else format_cell(prev / dist)))
            prev = dist
        self.assert_text(out / "converge.csv", "dt,final_trace_distance,ratio", rows)
        assert out.joinpath("converge.csv").read_text().splitlines()[1].endswith(",")


class TestCsvWriter:
    """_write_csv's bytes equal the per-cell oracle, and its memory stays bounded."""

    @staticmethod
    def assert_matches(tmp_path: Path, header: str, columns) -> None:
        path = tmp_path / "t.csv"
        cli._write_csv(path, header, columns)
        # Compared as lists of lines, so a failure names the first bad row
        # instead of diffing two long strings.
        want = reference_csv_text(header, columns).splitlines(keepends=True)
        assert path.read_text().splitlines(keepends=True) == want

    def test_matches_reference_on_edge_values(self, tmp_path):
        rng = np.random.default_rng(8)
        tiny = np.finfo(float).tiny
        special = np.array([
            0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, tiny / 3, 1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, -1e16, 1e16 + 2,
            1e17 + 16, 0.1 + 0.2, 123456789012.5, 1234567890123.5, 999999999999.5,
            0.9999999999995, 0.12345678901249999, 0.1234567890125, 1e-5, 1e-4, 1e15, 1e-15,
        ])
        n = 5000
        i64 = np.iinfo(np.int64)
        columns = (
            rng.choice(special, n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n),
            # next to a halfway point at the 12th significant digit
            np.nextafter(np.round(rng.uniform(100.0, 1000.0, n), 9) + 5e-10,
                         rng.choice([-np.inf, np.inf], n)),
            rng.choice(np.array([i64.min, i64.max, -1, 0, 1]), n),
            rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            rng.random(n) < 0.5,
            (rng.standard_normal(n) * 10.0 ** rng.integers(-45, 38, n)).astype(np.float32),
            np.array(["", "a", "x y", "%d", "1e5", "nan"])[rng.integers(0, 6, n)],
            np.array(["", "-0", "4.95"], dtype=object)[rng.integers(0, 3, n)],
            rng.standard_normal((n // 50, 50)),
        )
        self.assert_matches(tmp_path, ",".join("abcdefghij"), columns)

    @pytest.mark.parametrize("columns", [
        ([1.5, -0.0, float("nan")], [1, 2, 3], ["", "r", "s"]),
        ([2.0 ** -1074], [np.int64(-7)], [""]),
        (np.arange(6).reshape(2, 3) * 0.1, np.arange(6)),
    ], ids=["lists", "one-row", "2-d"])
    def test_matches_reference_on_small_tables(self, tmp_path, columns):
        self.assert_matches(tmp_path, "h", columns)

    def test_memory_bounded_by_chunk(self, tmp_path):
        rng = np.random.default_rng(9)
        axis = np.linspace(-5.0, 5.0, 401)
        columns = (np.tile(axis, 401), np.repeat(axis, 401),
                   rng.random((401, 401)) * 10.0 ** rng.integers(-12, 0, (401, 401)))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", "x,y,q", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 4_000_000
        assert peak < 1_000_000


class TestSweepCommand:
    def test_quadratic_buildup_across_steps(self, tmp_path):
        cfg = write(tmp_path, "model = linear\nomega = 0\ndt = 0.01\nsteps = 100\n")
        out = tmp_path / "out"
        assert main([
            "sweep", cfg, "--out-dir", str(out), "--param", "steps",
            "--values", "100,200",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["param"] == "steps"
        assert len(manifest["results"]) == 2
        means = []
        for entry in manifest["results"]:
            assert entry["status"] == "ok"
            _, rows = read_csv(out / entry["dir"] / "timeseries.csv")
            means.append(float(rows[-1][4]))
        # mean photon number scales as N^2 (within the per-step leak bias)
        assert means[1] / means[0] == pytest.approx(4.0, rel=0.05)

    def test_both_engines_emit_suffixed_files(self, tmp_path):
        cfg = write(tmp_path, TINY + "engine = both\n")
        out = tmp_path / "out"
        assert main([
            "sweep", cfg, "--out-dir", str(out), "--param", "zeta",
            "--values", "0.2,0.5",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = {f"{kind}_{engine}.csv" for kind in ("timeseries", "final_state")
                    for engine in ("hidden", "standard")}
        for entry in manifest["results"]:
            assert entry["status"] == "ok"
            assert set(entry["outputs"]) == expected
            for name, digest in entry["outputs"].items():
                data = (out / entry["dir"] / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest

    def test_empty_values_rejected(self, tmp_path):
        cfg = write(tmp_path, TINY)
        assert main([
            "sweep", cfg, "--out-dir", str(tmp_path / "o"), "--param", "steps",
            "--values", " , ",
        ]) == 1

    def test_unparsable_value_named(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        cfg = write(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["sweep", cfg, "--out-dir", str(out), "--param", "dim",
                     "--values", "4,abc"]) == 1
        assert capsys.readouterr().err == (
            "error: --values: dim: cannot parse 'abc' as an integer\n")
        assert calls == [] and not out.exists()

    def test_partial_failure_reported(self, tmp_path):
        cfg = write(tmp_path, "model = linear\nomega = 0\ndt = 0.01\nsteps = 10\ndim = 8\n")
        out = tmp_path / "out"
        # second value overflows the tiny truncation
        code = main([
            "sweep", cfg, "--out-dir", str(out), "--param", "steps",
            "--values", "10,600",
        ])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        status = {e["value"]: e["status"] for e in manifest["results"]}
        assert status["10"] == "ok"
        assert status["600"] == "failed"

    def test_unknown_param_rejected(self, tmp_path):
        cfg = write(tmp_path, TINY)
        assert main([
            "sweep", cfg, "--out-dir", str(tmp_path / "o"), "--param", "engine",
            "--values", "hidden",
        ]) == 1
