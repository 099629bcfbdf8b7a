"""The command-line front end."""

import json

import pytest

from repro.cli import main

PTX = """
.entry axpy (.param .ptr A, .param .u32 n) {
ENTRY:
  mov.u32 %tid, %tid.x;
  ld.param.u32 %a, [A];
  ld.param.u32 %n, [n];
  mov.u32 %i, %tid;
HEAD:
  setp.ge.u32 %p1, %i, %n;
  @%p1 bra EXIT;
BODY:
  shl.u32 %off, %i, 2;
  add.u32 %addr, %a, %off;
  ld.global.u32 %v, [%addr];
  mad.u32 %v2, %v, 3, 7;
  st.global.u32 [%addr], %v2;
  add.u32 %i, %i, 32;
  bra HEAD;
EXIT:
  ret;
}
"""


@pytest.fixture
def ptx_file(tmp_path):
    path = tmp_path / "axpy.ptx"
    path.write_text(PTX)
    return str(path)


def test_schemes_listing(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "Penny" in out and "Bolt/Global" in out


def test_compile_prints_protected_ptx(ptx_file, capsys):
    assert main(["compile", ptx_file, "--block", "32", "--grid", "2"]) == 0
    out = capsys.readouterr().out
    assert ".entry axpy" in out
    assert "__ckpt" in out  # checkpoint storage appeared
    assert "// checkpoints_total" in out


def test_compile_respects_overrides(ptx_file, capsys):
    assert (
        main(
            [
                "compile", ptx_file, "--pruning", "none",
                "--storage", "global", "--overwrite", "sa",
                "--no-low-opts", "--block", "32", "--grid", "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "st.global" in out
    assert "__ckpt_shared" not in out


def test_report_emits_json(ptx_file, capsys):
    assert main(["report", ptx_file, "--block", "32", "--grid", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["kernel"] == "axpy"
    assert "checkpoints_total" in reports[0]["stats"]
    assert reports[0]["boundaries"]


def test_policy_flag_threads_into_report(ptx_file, capsys):
    assert (
        main(
            [
                "report", ptx_file, "--block", "32", "--grid", "2",
                "--policy", "addr",
            ]
        )
        == 0
    )
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["policy"] == "address-only"  # alias canonicalized
    assert reports[0]["stats"]["protection_policy"] == "address-only"


def test_policy_flag_rejects_garbage(ptx_file):
    with pytest.raises(SystemExit, match="invalid --policy"):
        main(["compile", ptx_file, "--policy", "frobnicate"])


def test_param_noalias_flag(ptx_file, capsys):
    assert (
        main(
            [
                "report", ptx_file, "--param-noalias",
                "--block", "32", "--grid", "2",
            ]
        )
        == 0
    )
    json.loads(capsys.readouterr().out)


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PTX))
    assert main(["compile", "-", "--block", "32", "--grid", "2"]) == 0
    assert ".entry axpy" in capsys.readouterr().out


def test_verify_subcommand(ptx_file, capsys):
    assert main(["verify", ptx_file, "--block", "32", "--grid", "2"]) == 0
    assert "verified clean" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags", (["--backend", "scalar"], ["--strict"]), ids=lambda f: f[0]
)
def test_verify_rejects_corpus_only_flags_without_corpus(
    ptx_file, flags, capsys, monkeypatch
):
    from repro.gpusim.backend import BACKEND_ENV_VAR

    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert main(["verify", ptx_file, *flags]) == 2
    captured = capsys.readouterr()
    assert flags[0] in captured.err
    assert "verified clean" not in captured.out
