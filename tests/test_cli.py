"""The repro-vault command-line interface."""

import subprocess
import sys

import pytest


def vault(tmp_path, *args, stdin=""):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli",
         "--server-dir", str(tmp_path / "server")] + list(args),
        input=stdin, capture_output=True, text=True, timeout=120)
    return result


def test_full_workflow(tmp_path):
    assert vault(tmp_path, "init").returncode == 0

    put = vault(tmp_path, "put", "hr/roster",
                stdin="alice,eng\nbob,sales\ncarol,hr\n")
    assert put.returncode == 0
    assert "3 records" in put.stdout

    ls = vault(tmp_path, "ls")
    assert "hr/roster" in ls.stdout

    cat = vault(tmp_path, "cat", "hr/roster")
    assert cat.stdout.splitlines() == ["alice,eng", "bob,sales", "carol,hr"]

    get = vault(tmp_path, "get", "hr/roster", "1")
    assert get.stdout.strip() == "bob,sales"

    assert vault(tmp_path, "set", "hr/roster", "1", "bob,marketing").returncode == 0
    assert vault(tmp_path, "get", "hr/roster", "1").stdout.strip() == \
        "bob,marketing"

    assert vault(tmp_path, "add", "hr/roster", "dave,legal").returncode == 0

    rm = vault(tmp_path, "rm", "hr/roster", "0")
    assert rm.returncode == 0
    assert "assuredly deleted" in rm.stdout
    cat = vault(tmp_path, "cat", "hr/roster")
    assert cat.stdout.splitlines() == ["bob,marketing", "carol,hr",
                                       "dave,legal"]

    stats = vault(tmp_path, "stats")
    assert '"files": 1' in stats.stdout
    assert '"control_keys": 1' in stats.stdout

    drop = vault(tmp_path, "drop", "hr/roster")
    assert drop.returncode == 0
    assert vault(tmp_path, "ls").stdout.strip() == ""


def test_errors_are_clean(tmp_path):
    missing = vault(tmp_path, "ls")
    assert missing.returncode == 1
    assert "init" in missing.stderr

    vault(tmp_path, "init")
    bad = vault(tmp_path, "cat", "ghost")
    assert bad.returncode == 1


def test_put_replaces_assuredly(tmp_path):
    vault(tmp_path, "init")
    vault(tmp_path, "put", "f", stdin="v1\n")
    vault(tmp_path, "put", "f", stdin="v2\n")
    assert vault(tmp_path, "cat", "f").stdout.strip() == "v2"


def test_stress_subcommand(tmp_path):
    import json

    run = vault(tmp_path, "stress", "--seed", "cli-test", "--workers", "2",
                "--ops", "6")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["seed"] == "cli-test"
    assert report["invariants"] == [
        "version-accounting", "surviving-data-decrypts",
        "cross-shard-placement", "theorem2-deleted-unrecoverable",
        "wal-replay-reproduces-state", "audit-chain-matches-history"]

    again = vault(tmp_path, "stress", "--seed", "cli-test", "--workers", "2",
                  "--ops", "6")
    assert json.loads(again.stdout)["ops"] == report["ops"]


def test_serve_rejects_bad_max_conns(tmp_path):
    vault(tmp_path, "init")
    bad = vault(tmp_path, "serve", "--max-conns", "0")
    assert bad.returncode != 0


def _serve_durable_briefly(tmp_path, *extra):
    """``serve --durable`` until it is up, then SIGINT (its checkpoint)."""
    import signal
    import time
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--server-dir",
         str(tmp_path / "server"), "serve", "--durable", "--port", "0"]
        + list(extra), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line)
            if line.startswith("serving vault on"):
                break
        # An interrupt that lands before the CLI parks in its wait would
        # escape the handler that checkpoints.
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, lines


def test_durable_serve_keeps_state_in_the_engine(tmp_path):
    """The first durable serve writes the vault into state.db; the next
    one opens it, and ``compact`` works on it offline."""
    import json
    vault(tmp_path, "init")
    vault(tmp_path, "put", "f", stdin="a\nb\n")
    code, lines = _serve_durable_briefly(tmp_path, "--audit")
    assert code == 0
    assert any("state.db" in line for line in lines)
    names = sorted(p.name for p in (tmp_path / "server").iterdir())
    assert "state.db" in names and "server.wal" in names
    assert "server.img" not in names
    code, lines = _serve_durable_briefly(tmp_path)
    assert code == 0
    compact = vault(tmp_path, "compact")
    assert compact.returncode == 0, compact.stderr
    assert json.loads(compact.stdout)["replayed_records"] == 0


def test_storage_options_are_sqlite_only(tmp_path):
    vault(tmp_path, "init")
    for args in (("serve", "--backend", "memory"),
                 ("serve", "--backend", "log"),
                 ("compact", "--backend", "sqlite"),
                 ("stress", "--backend", "log")):
        run = vault(tmp_path, *args)
        assert run.returncode == 2, args  # argparse rejects the option
        assert "invalid choice" in run.stderr or \
            "unrecognized arguments" in run.stderr


@pytest.mark.parametrize("legacy", ["server.img", "state.log", None])
def test_durable_serve_refuses_old_format_vault(tmp_path, legacy):
    """A server dir with a WAL (plus an old image or log-engine file) but
    no state.db must fail closed: replaying the WAL into a fresh engine
    would silently drop every file."""
    from repro.server.wal import CommitLog
    vault(tmp_path, "init")
    vault(tmp_path, "put", "f", stdin="a\nb\n")
    server_dir = tmp_path / "server"
    if legacy is not None:
        (server_dir / legacy).write_bytes(b"old state")
    CommitLog(str(server_dir / "server.wal")).close()
    for args in (("serve", "--durable", "--port", "0"), ("compact",)):
        run = vault(tmp_path, *args)
        assert run.returncode == 1
        named = legacy if legacy is not None else "server.wal"
        assert named in run.stderr and "error:" in run.stderr
    assert not (server_dir / "state.db").exists()
