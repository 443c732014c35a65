"""The file comparison of scripts/same_outputs.py."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # same_outputs imports bench_pairs
spec = importlib.util.spec_from_file_location(
    "same_outputs", SCRIPTS / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_compare_reports_each_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for name, a, b in (("equal.log", b"epoch=0\n", b"epoch=0\n"),
                       ("last-byte.ckpt", b"{}\n\x00\x01", b"{}\n\x00\x02"),
                       ("longer.csv", b"a,b\n", b"a,b\n\n")):
        (parent / name).write_bytes(a)
        (change / name).write_bytes(b)
    (parent / "only-parent.conllu").write_bytes(b"x")
    (change / "only-change.conllu").write_bytes(b"x")
    names = ["equal.log", "last-byte.ckpt", "longer.csv",
             "only-parent.conllu", "only-change.conllu", "neither.csv"]
    assert same_outputs.compare(parent, change, names) == {
        "equal.log": True, "last-byte.ckpt": False, "longer.csv": False,
        "only-parent.conllu": False, "only-change.conllu": False,
        "neither.csv": False}


def test_outputs_are_the_files_the_commands_write():
    written = []
    for cmd in same_outputs.commands(Path("train.conllu"), Path("dev.conllu"),
                                     Path("vectors.txt")):
        flags = {"tag": ("--output",), "eval": ("--csv",)}.get(
            cmd[0], ("--checkpoint", "--log", "--out"))
        written += [cmd[i + 1] for i, arg in enumerate(cmd) if arg in flags]
    assert sorted(written) == sorted(same_outputs.OUTPUTS)
    assert len(written) == 27


def test_grid_and_ablate_read_the_vectors_file():
    cmds = same_outputs.commands(Path("train.conllu"), Path("dev.conllu"),
                                 Path("vectors.txt"))
    with_vectors = [cmd[0] for cmd in cmds if "--pretrained" in cmd]
    assert with_vectors == ["grid"] + ["ablate"] * 4


def test_vectors_file_is_fixed_values_for_training_forms(tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text("# c\n1\tab\t_\t_\tX\t_\t0\t_\t_\t_\n"
                     "2\tb\t_\t_\tX\t_\t0\t_\t_\t_\n\n"
                     "1\tab\t_\t_\tX\t_\t0\t_\t_\t_\n\n")
    vectors = tmp_path / "v.txt"
    same_outputs.write_vectors(train, vectors, dim=3)
    assert vectors.read_text() == "ab -0.9 -0.6 -0.3\nb -0.2 0.1 0.4\n"


def test_studies_file_drops_only_the_timing_lines():
    text = ("== context (2 seeds, 7s) ==\nconfig  seeds\n\n"
            "== optimization (2 seeds, 12s) ==\npaired t=1.0 p=0.5\n\n")
    assert same_outputs.without_timings(text) == \
        "config  seeds\n\npaired t=1.0 p=0.5\n\n"


def test_memory_file_keeps_only_the_digest_line():
    text = ("model 181.0 MiB, moments 362.0 MiB (not counted below)\n"
            "entry 117.0 MiB\npeak 186.3 MiB at lstm_run (880, 800)\n"
            "after 0.1 MiB\ndigest f59a948f\npeak RSS 781.4 MiB\n")
    assert same_outputs.digest_line(text) == "digest f59a948f\n"
    assert same_outputs.digest_line("peak RSS 781.4 MiB\n") == ""


def test_blas_build_is_read_as_perfbench_reads_it(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    import workloads
    env = workloads.environment(0)
    assert same_outputs.blas_build() == \
        f"numpy {env['numpy']}, BLAS {env['blas']}"


def test_each_side_reports_the_blas_threads_it_ran_with(tmp_path,
                                                         monkeypatch):
    ran = []
    monkeypatch.setattr(same_outputs.subprocess, "run",
                        lambda cmd, env, **kw: ran.append(env) or
                        same_outputs.subprocess.CompletedProcess(cmd, 0, ""))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert same_outputs.run_side(tmp_path, [["eval"]], tmp_path / "out") \
        == "1"
    assert {env["OPENBLAS_NUM_THREADS"] for env in ran} == {"1"}
