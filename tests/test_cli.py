"""Config parsing, CSV emission, exit codes, determinism."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from hlq import cli
from hlq.cli import main, parse_config
from hlq.errors import ConfigParseError, ConfigValidationError
from hlq.oracles import ground_state_probability

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_finite_state_is_2(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "model = linear\nomega = 1\ndt = 0.01\nsteps = 3\ndim = 8\n"
                              "eta = 1e308\n")
        assert main([command, cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "trace (nan+nanj) at step 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "model = linear\nomega = 1e308\ndt = 1\nsteps = 3\n",
        TINY + "initial = coherent(1e200)\n",
    ])
    def test_overflowing_config_is_1(self, tmp_path, text):
        cfg = write(tmp_path, text)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1

    def test_missing_config_file_is_3(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 3

    def test_unwritable_out_dir_is_3(self, tmp_path):
        cfg = write(tmp_path, TINY)
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory")
        assert main(["run", cfg, "--out-dir", str(blocker)]) == 3


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
