"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_size, build_parser, main


class TestParseSize:
    def test_suffixes(self):
        assert _parse_size("64K") == 64 << 10
        assert _parse_size("8M") == 8 << 20
        assert _parse_size("1G") == 1 << 30
        assert _parse_size("1024") == 1024
        assert _parse_size("0.5M") == 512 << 10
        assert _parse_size("0") == 0

    def test_bad_size(self):
        import argparse
        for text in ("abc", "1Q", "-1", "-1M", "inf", "nan"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_size(text)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.framework == "scaffe"
        assert args.gpus == 16
        assert args.scal == "strong"

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--framework",
                                       "tensorflow"])

    def test_framework_choices_follow_the_trainer(self):
        from repro.core import FRAMEWORK_NAMES
        for name in FRAMEWORK_NAMES:
            args = build_parser().parse_args(["train", "--framework", name])
            assert args.framework == name


class TestBadInputRejected:
    """Malformed ``--sizes``/``--design`` values are usage errors (exit
    2) raised by argparse, before any header is printed or any
    simulation starts."""

    @pytest.mark.parametrize("argv", [
        ["osu", "--design", "bogus"],
        ["osu", "--design", "flat,bogus"],
        ["osu", "--sizes=inf"],
        ["osu", "--sizes=nan"],
        ["osu", "--sizes=-1M"],
        ["osu", "--sizes", "1Q"],
        ["osu", "--sizes", ","],
        ["crossover", "--sizes=inf"],
        ["crossover", "--sizes", "1Q"],
    ], ids=" ".join)
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument" in err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "S-Caffe" in out
        assert "Inspur-Caffe" in out

    def test_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "googlenet" in out and "alexnet" in out

    def test_profile_quick(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(["profile", "--model", "cifar10_quick",
                   "--dataset", "cifar10", "--gpus", "4",
                   "--batch-size", "64", "--iterations", "3",
                   "--seed", "3", "--trace", str(trace),
                   "--what-if", "ib=2,compute=1.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "by phase:" in out
        assert "comm matrix" in out
        assert "what-if" in out and "lower bound" in out
        # The trace file is Perfetto-loadable JSON with flow events.
        import json
        data = json.loads(trace.read_text())
        phs = {e["ph"] for e in data["traceEvents"]}
        assert {"X", "M", "s", "f"} <= phs

    def test_profile_deterministic(self, capsys):
        argv = ["profile", "--model", "cifar10_quick",
                "--dataset", "cifar10", "--gpus", "4",
                "--batch-size", "64", "--iterations", "3", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_profile_bad_what_if(self):
        import argparse
        from repro.cli import _parse_what_if
        assert _parse_what_if("ib=2, compute=1.3") == {
            "ib": 2.0, "compute": 1.3}
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_what_if("ib")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_what_if("ib=fast")

    def test_train_quick(self, capsys):
        rc = main(["train", "--framework", "scaffe", "--cluster", "A",
                   "--gpus", "4", "--network", "cifar10_quick",
                   "--dataset", "cifar10", "--batch-size", "64",
                   "--iterations", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S-Caffe" in out
        assert "time/iteration" in out

    def test_train_comparator_prints_live_status(self, capsys):
        rc = main(["train", "--framework", "cntk", "--cluster", "A",
                   "--gpus", "4", "--network", "cifar10_quick",
                   "--dataset", "cifar10", "--batch-size", "64",
                   "--iterations", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter    1" in out and "samples/s" in out
        assert "CNTK" in out

    def test_train_failure_exit_code(self, capsys):
        rc = main(["train", "--framework", "caffe", "--cluster", "B",
                   "--gpus", "8", "--network", "cifar10_quick",
                   "--dataset", "cifar10", "--batch-size", "64",
                   "--iterations", "2"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_osu(self, capsys):
        rc = main(["osu", "--procs", "8", "--sizes", "64K,1M",
                   "--design", "tuned"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "64K" in out and "1M" in out and "us" in out

    def test_osu_hr_design(self, capsys):
        rc = main(["osu", "--procs", "16", "--sizes", "1M",
                   "--design", "CB-4"])
        assert rc == 0

    def test_autotune(self, capsys):
        # "repro osu --design a,b,c" is the CLI's per-size autotuner.
        designs = ["flat", "CB-4", "CC-4"]
        assert main(["osu", "--procs", "16", "--sizes", "64K,16M",
                     "--design", ",".join(designs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "design=flat,CB-4,CC-4" in lines[0]
        assert lines[1].split() == ["size"] + designs + ["fastest"]
        assert [r.split()[0] for r in lines[2:]] == ["64K", "16M"]
        for row in lines[2:]:
            cells = row.split()
            lat = [float(x) for x in cells[1:-1:2]]
            # The fastest column names the measured minimum.
            assert cells[-1] == designs[lat.index(min(lat))]

    def test_chaos_rank_crash(self, capsys):
        rc = main(["chaos", "--plan", "rank-crash", "--gpus", "16",
                   "--network", "alexnet", "--batch-size", "256",
                   "--iterations", "4", "--checkpoint-interval", "2",
                   "--describe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CrashRank" in out            # --describe schedule
        assert "crashed ranks" in out        # fault report section
        assert "overhead vs quiet" in out

    def test_chaos_quiet_plan(self, capsys):
        rc = main(["chaos", "--plan", "quiet", "--gpus", "16",
                   "--network", "alexnet", "--batch-size", "256",
                   "--iterations", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 events" in out

    def test_chaos_unknown_plan(self, capsys):
        rc = main(["chaos", "--plan", "mystery"])
        assert rc == 2


class TestPrototxtOption:
    LENET = '''
name: "CliNet"
input_dim: 1 input_dim: 1 input_dim: 28 input_dim: 28
layer { name: "conv1" type: "Convolution"
  convolution_param { num_output: 8 kernel_size: 5 } }
layer { name: "pool1" type: "Pooling"
  pooling_param { kernel_size: 2 stride: 2 } }
layer { name: "ip1" type: "InnerProduct"
  inner_product_param { num_output: 10 } }
'''

    def test_train_from_prototxt(self, tmp_path, capsys):
        path = tmp_path / "net.prototxt"
        path.write_text(self.LENET)
        rc = main(["train", "--net-prototxt", str(path),
                   "--dataset", "mnist", "--gpus", "4",
                   "--batch-size", "64", "--iterations", "4",
                   "--cluster", "A"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CliNet" in out


class TestDiffWorkflow:
    """repro profile --json -> repro diff, plus chaos --flight."""

    def _profile(self, out, seed, extra=()):
        return main(["profile", "--model", "cifar10_quick",
                     "--dataset", "cifar10", "--gpus", "4",
                     "--batch-size", "64", "--iterations", "3",
                     "--seed", str(seed), "--json", str(out), *extra])

    def test_profile_json_writes_a_run_file(self, capsys, tmp_path):
        import json
        out = tmp_path / "run.json"
        assert self._profile(out, 3) == 0
        stdout = capsys.readouterr().out
        assert "run file written" in stdout
        assert "stragglers:" in stdout       # detector verdict printed
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro.obs.run/1"
        assert payload["runcard"]["seed"] == 3
        assert payload["profile"]["cp_cells"]
        assert "straggler" in payload

    def test_profile_json_stdout(self, capsys):
        import json
        rc = main(["profile", "--model", "cifar10_quick",
                   "--dataset", "cifar10", "--gpus", "4",
                   "--batch-size", "64", "--iterations", "3",
                   "--seed", "3", "--json", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.obs.run/1"

    def test_diff_two_runs(self, capsys, tmp_path):
        import json
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        trace = tmp_path / "cmp.json"
        assert self._profile(a, 3) == 0
        assert self._profile(b, 4) == 0
        capsys.readouterr()
        rc = main(["diff", str(a), str(b), "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run diff:" in out
        assert "by phase:" in out and "by rank:" in out
        data = json.loads(trace.read_text())
        pids = {e["pid"] for e in data["traceEvents"]}
        assert pids == {0, 1}  # base and candidate on separate tracks
        assert any(e["ph"] == "X" for e in data["traceEvents"])

    def test_diff_rejects_non_run_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["diff", str(bad), str(bad)])
        assert rc == 2
        assert "cannot load run file" in capsys.readouterr().err

    def test_chaos_flight_postmortem(self, capsys, tmp_path):
        import json
        out = tmp_path / "flight.json"
        rc = main(["chaos", "--plan", "stall", "--gpus", "4",
                   "--network", "cifar10_quick", "--batch-size", "64",
                   "--iterations", "3", "--flight", str(out)])
        assert rc == 0
        assert "flight-recorder post-mortem" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro.obs.flight/1"
        assert payload["events"]
