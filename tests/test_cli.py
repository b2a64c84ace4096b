"""Operator surface: run, view, export, replay, diff."""

import builtins
import hashlib

import pytest

import provrun.container
import provrun.core
from provrun import (
    ContainerReader,
    PhaseStatus,
    emit_canonical,
    extract_info,
    parse_options,
    read_block,
    run_job,
    write_container,
)
from provrun.cli import EXIT_ERROR, EXIT_OK, EXIT_VERIFY, main
from provrun.errors import AlgorithmFailure, OptionsError

from helpers import FailingFile, demo_config
from test_core import BUGS, MISFITS, buggy_catalogue, buggy_config, misfit_catalogue, misfit_config


def write_config(path, config):
    path.write_text(emit_canonical(config), encoding="utf-8")


@pytest.fixture
def demo_files(tmp_path):
    out = tmp_path / "out.pdc"
    config = demo_config(out, RandomEventSource__Seed=1,
                         RandomEventSource__NumEvents=50,
                         ThresholdFilter__Min=0.4,
                         ApplicationMgr__AppVersion="v7r2")
    config_path = tmp_path / "demo.opts"
    write_config(config_path, config)
    return config_path, out


def test_run_happy_path(demo_files, capsys):
    config_path, out = demo_files
    assert main(["run", str(config_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "execute      ok" in captured.out
    assert out.exists()
    reader_names = set()
    from provrun import ContainerReader

    with ContainerReader(out) as reader:
        reader_names = set(reader.block_names())
    assert {"events", "info"} <= reader_names


def test_run_unknown_component(tmp_path, capsys):
    config = demo_config(tmp_path / "x.pdc", algorithms=("Ghost",))
    path = tmp_path / "bad.opts"
    write_config(path, config)
    assert main(["run", str(path)]) == EXIT_ERROR
    assert "Ghost" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.opts")]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_run_rejects_invalid_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.opts"
    bad.write_bytes(b"A.X = 1\nB.Y = \xff\xfe\n")
    assert main(["run", str(bad)]) == EXIT_ERROR
    assert "UTF-8" in capsys.readouterr().err


def test_run_reports_syntax_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.opts"
    bad.write_text("A.X = 1\nB.Y = [1, oops]\n", encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "column" in err


@pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"),
                                  lambda text: text.replace('"v7r2"', '"v7\rr2"')],
                         ids=["crlf_line_endings", "raw_cr_in_a_string"])
def test_run_reads_the_config_bytes_without_newline_translation(tmp_path, capsys, edit):
    out = tmp_path / "out.pdc"
    text = edit(emit_canonical(demo_config(out, ApplicationMgr__AppVersion="v7r2")))
    with pytest.raises(OptionsError) as refused:
        parse_options(text)
    path = tmp_path / "cr.opts"
    path.write_bytes(text.encode("utf-8"))
    assert main(["run", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_run_into_a_missing_directory_fails_finalize(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "c.opts"
    write_config(config_path, demo_config("missing_dir/out.pdc"))
    assert main(["run", str(config_path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert "finalize     failed" in out
    assert "error: finalize: cannot write missing_dir/out.pdc" in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_run_into_a_missing_directory_prints_no_output_line(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "c.opts"
    write_config(config_path, demo_config("missing_dir/out.pdc"))
    assert main(["run", str(config_path)]) == EXIT_ERROR
    assert "output " not in capsys.readouterr().out


@pytest.mark.parametrize("shape", sorted(MISFITS))
def test_run_with_a_kept_row_the_schema_cannot_encode_exits_1(tmp_path, capsys,
                                                             monkeypatch, shape):
    monkeypatch.setattr(provrun.core, "standard_catalogue", misfit_catalogue)
    out = tmp_path / "misfit.pdc"
    config_path = tmp_path / "misfit.opts"
    write_config(config_path, misfit_config(out, shape))
    assert main(["run", str(config_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "finalize     failed" in captured.out
    assert (f"error: finalize: cannot write the kept events: {MISFITS[shape][1]}"
            in captured.err)
    assert not out.exists()


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_run_with_an_algorithm_bug_exits_1_with_one_error_line(tmp_path, capsys,
                                                               monkeypatch, bug):
    monkeypatch.setattr(provrun.core, "standard_catalogue", buggy_catalogue)
    phase, _, message = BUGS[bug]
    config_path = tmp_path / "buggy.opts"
    write_config(config_path, buggy_config(tmp_path / "buggy.pdc", bug))
    assert main(["run", str(config_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"{phase:<12} failed" in captured.out
    assert captured.err.endswith(f"\nerror: {phase}: {message}\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("prop, value", [("Path", 3), ("Checksum", -1),
                                         ("Checksum", 4294967296), ("Checksum", 1.5)])
def test_run_refuses_a_lineage_declaration_of_the_wrong_kind(tmp_path, capsys, prop,
                                                             value):
    config_path = tmp_path / "c.opts"
    write_config(config_path, demo_config(tmp_path / "x.pdc",
                                          **{f"Provenance__Inputs__I0__{prop}": value}))
    assert main(["run", str(config_path)]) == EXIT_ERROR
    assert "initialize   failed" in capsys.readouterr().out


def test_run_twice_is_byte_identical(demo_files):
    config_path, out = demo_files
    assert main(["run", str(config_path)]) == EXIT_OK
    first = hashlib.sha256(out.read_bytes()).hexdigest()
    assert main(["run", str(config_path)]) == EXIT_OK
    second = hashlib.sha256(out.read_bytes()).hexdigest()
    assert first == second


def test_view_table(demo_files, capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    capsys.readouterr()
    assert main(["view", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("ApplicationMgr.AppVersion") and
               line.rstrip().endswith("| v7r2") for line in lines)
    # keys arrive in dictionary order
    keys = [line.split(" |")[0].rstrip() for line in lines if " | " in line]
    assert keys == sorted(keys, key=lambda k: k.encode())


def test_view_tsv_is_canonical_text(demo_files, capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    capsys.readouterr()
    assert main(["view", str(out), "--format", "tsv"]) == EXIT_OK
    rows = dict(line.split("\t", 1)
                for line in capsys.readouterr().out.splitlines())
    assert rows["ApplicationMgr.AppVersion"] == '"v7r2"'
    assert rows["RandomEventSource.Seed"] == "1"


def test_view_without_provenance(tmp_path, capsys):
    out = tmp_path / "plain.pdc"
    config = demo_config(out, metadata=False)
    path = tmp_path / "c.opts"
    write_config(path, config)
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["view", str(out)]) == EXIT_ERROR
    assert "no provenance recorded" in capsys.readouterr().err


def test_view_empty_algorithm_job(tmp_path, capsys):
    out = tmp_path / "empty.pdc"
    config = demo_config(out, algorithms=())
    path = tmp_path / "c.opts"
    write_config(path, config)
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["view", str(out)]) == EXIT_OK
    out_lines = capsys.readouterr().out
    assert "MessageSvc.OutputLevel" in out_lines
    assert "RandomEventSource" not in out_lines


def test_export_roundtrips_payload(demo_files, tmp_path, capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    flat = tmp_path / "flat.opts"
    assert main(["export", str(out), str(flat)]) == EXIT_OK
    # the export parses cleanly and runs to an identical payload
    exported = parse_options(flat.read_text(encoding="utf-8"))
    replint = tmp_path / "rerun.pdc"
    exported.set("ApplicationMgr.OutputFile", str(replint))
    rerun_path = tmp_path / "rerun.opts"
    write_config(rerun_path, exported)
    assert main(["run", str(rerun_path)]) == EXIT_OK
    assert read_block(out, "events") == read_block(replint, "events")


def test_export_twice_identical(demo_files, tmp_path):
    config_path, out = demo_files
    main(["run", str(config_path)])
    flat1 = tmp_path / "flat1.opts"
    flat2 = tmp_path / "flat2.opts"
    main(["export", str(out), str(flat1)])
    main(["export", str(out), str(flat2)])
    assert flat1.read_bytes() == flat2.read_bytes()


def test_failed_export_keeps_the_previous_file(demo_files, tmp_path, monkeypatch,
                                               capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    flat = tmp_path / "flat.opts"
    flat.write_bytes(b"A.X = 1\n")
    names = sorted(p.name for p in tmp_path.iterdir())
    # cut the export at a line boundary: the partial file would still parse
    limit = extract_info(out).emit().index("\n") + 1

    def failing_open(file, mode="r", *args, **kwargs):
        raw = builtins.open(file, mode, *args, **kwargs)
        return FailingFile(raw, limit) if "w" in mode else raw

    monkeypatch.setattr(provrun.container, "open", failing_open, raising=False)
    assert main(["export", str(out), str(flat)]) == EXIT_ERROR
    assert "cannot write" in capsys.readouterr().err
    assert flat.read_bytes() == b"A.X = 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_replay_verifies_and_matches(demo_files, tmp_path, capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    replayed = tmp_path / "replayed.pdc"
    assert main(["replay", str(out), str(replayed)]) == EXIT_OK
    assert read_block(out, "events") == read_block(replayed, "events")
    left = extract_info(out).without("ApplicationMgr.OutputFile")
    right = extract_info(replayed).without("ApplicationMgr.OutputFile")
    assert left == right


def test_replay_survives_deleted_config(demo_files, tmp_path):
    config_path, out = demo_files
    main(["run", str(config_path)])
    config_path.unlink()
    replayed = tmp_path / "replayed.pdc"
    assert main(["replay", str(out), str(replayed)]) == EXIT_OK


def test_replay_without_provenance(tmp_path, capsys):
    out = tmp_path / "plain.pdc"
    config = demo_config(out, metadata=False)
    path = tmp_path / "c.opts"
    write_config(path, config)
    main(["run", str(path)])
    assert main(["replay", str(out), str(tmp_path / "r.pdc")]) == EXIT_ERROR


def test_replay_detects_changed_input(tmp_path, capsys):
    first = tmp_path / "first.pdc"
    first_cfg = tmp_path / "first.opts"
    write_config(first_cfg, demo_config(first, algorithms=("RandomEventSource",),
                                        RandomEventSource__NumEvents=8))
    main(["run", str(first_cfg)])

    second = tmp_path / "second.pdc"
    second_cfg = tmp_path / "second.opts"
    write_config(second_cfg, demo_config(
        second, algorithms=("FileEventSource",),
        FileEventSource__Input=str(first)))
    assert main(["run", str(second_cfg)]) == EXIT_OK

    # regenerate the input with a different seed: same path, new bytes
    write_config(first_cfg, demo_config(first, algorithms=("RandomEventSource",),
                                        RandomEventSource__NumEvents=8,
                                        RandomEventSource__Seed=999))
    main(["run", str(first_cfg)])
    out = tmp_path / "r.pdc"
    code = main(["replay", str(second), str(out)])
    assert code == EXIT_VERIFY
    assert "checksum" in capsys.readouterr().err.lower()
    assert not out.exists()


def test_replay_detects_missing_input(tmp_path, capsys):
    first = tmp_path / "first.pdc"
    first_cfg = tmp_path / "first.opts"
    write_config(first_cfg, demo_config(first, algorithms=("RandomEventSource",)))
    main(["run", str(first_cfg)])
    second = tmp_path / "second.pdc"
    second_cfg = tmp_path / "second.opts"
    write_config(second_cfg, demo_config(
        second, algorithms=("FileEventSource",),
        FileEventSource__Input=str(first)))
    main(["run", str(second_cfg)])
    first.unlink()
    out = tmp_path / "r.pdc"
    assert main(["replay", str(second), str(out)]) == EXIT_VERIFY
    assert not out.exists()


def test_run_fails_on_a_missing_input_it_does_not_declare(tmp_path):
    missing = tmp_path / "missing.pdc"
    out = tmp_path / "out.pdc"
    config = demo_config(out, algorithms=("FileEventSource",),
                         FileEventSource__Input=str(missing))
    job = run_job(config)
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == f"input container {str(missing)!r} does not exist"
    config_path = tmp_path / "missing.opts"
    write_config(config_path, config)
    assert main(["run", str(config_path)]) == EXIT_ERROR
    assert not out.exists()


def derived_from_source(tmp_path):
    """A source container and a FileEventSource job's container built on it."""
    source = tmp_path / "src.pdc"
    source_cfg = tmp_path / "src.opts"
    write_config(source_cfg, demo_config(source, algorithms=("RandomEventSource",),
                                         RandomEventSource__NumEvents=8))
    assert main(["run", str(source_cfg)]) == EXIT_OK
    derived = tmp_path / "derived.pdc"
    derived_cfg = tmp_path / "derived.opts"
    write_config(derived_cfg, demo_config(
        derived, algorithms=("FileEventSource", "Accumulator"),
        FileEventSource__Input=str(source)))
    assert main(["run", str(derived_cfg)]) == EXIT_OK
    return source, derived


def test_run_refuses_to_overwrite_its_input(tmp_path, capsys):
    source, _ = derived_from_source(tmp_path)
    before = source.read_bytes()
    link = tmp_path / "link.pdc"  # the same file under another name
    link.symlink_to(source)
    cfg = tmp_path / "self.opts"
    write_config(cfg, demo_config(link, algorithms=("FileEventSource",),
                                  FileEventSource__Input=str(source)))
    assert main(["run", str(cfg)]) == EXIT_ERROR
    assert "overwrite" in capsys.readouterr().err
    assert source.read_bytes() == before


def test_replay_refuses_to_overwrite_its_input(tmp_path, capsys):
    source, derived = derived_from_source(tmp_path)
    before = source.read_bytes()
    assert main(["replay", str(derived), str(source)]) == EXIT_ERROR
    assert "overwrite" in capsys.readouterr().err
    assert source.read_bytes() == before


def forge_summary(derived):
    """Rewrite `derived` as a valid container with a forged summary block."""
    info = extract_info(derived)
    with ContainerReader(derived) as reader:
        blocks = [(name, reader.read_block(name)) for name in reader.block_names()
                  if name != "info"]
    write_container(derived, [(name, b"Accumulator.Count = 0\n" if name == "summary"
                                     else payload) for name, payload in blocks], info=info)


def test_replay_detects_tampered_summary(tmp_path, capsys):
    _, derived = derived_from_source(tmp_path)
    forge_summary(derived)
    assert main(["replay", str(derived), str(tmp_path / "r.pdc")]) == EXIT_VERIFY
    assert "summary" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["events", "summary"])
def test_replay_detects_a_flipped_payload_byte_under_an_intact_toc(tmp_path, capsys, block):
    _, derived = derived_from_source(tmp_path)
    payload = read_block(derived, block)
    data = bytearray(derived.read_bytes())
    data[data.index(payload) + len(payload) - 1] ^= 0x01
    derived.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["replay", str(derived), str(tmp_path / "r.pdc")]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert block in err
    assert "verified" not in err


def test_replay_of_info_without_a_default_is_a_provenance_mismatch(demo_files, tmp_path,
                                                                   capsys):
    config_path, out = demo_files
    assert main(["run", str(config_path)]) == EXIT_OK
    info = extract_info(out)
    with ContainerReader(out) as reader:
        blocks = [(name, reader.read_block(name)) for name in reader.block_names()
                  if name != "info"]
    write_container(out, blocks, info=info.without("MessageSvc.OutputLevel"))
    capsys.readouterr()
    assert main(["replay", str(out), str(tmp_path / "r.pdc")]) == EXIT_VERIFY
    assert "replayed provenance differs" in capsys.readouterr().err


def same_file_name(tmp_path, path, via_link):
    if not via_link:
        return path
    link = tmp_path / "link.pdc"
    link.symlink_to(path)
    return link


@pytest.mark.parametrize("via_link", [False, True])
def test_replay_refuses_to_overwrite_the_container_it_reads(tmp_path, capsys, via_link):
    _, derived = derived_from_source(tmp_path)
    forge_summary(derived)  # replaying it would write different bytes
    before = derived.read_bytes()
    out = same_file_name(tmp_path, derived, via_link)
    assert main(["replay", str(derived), str(out)]) == EXIT_ERROR
    assert "overwrite" in capsys.readouterr().err
    assert derived.read_bytes() == before


@pytest.mark.parametrize("via_link", [False, True])
def test_export_refuses_to_overwrite_the_container_it_reads(demo_files, tmp_path,
                                                            capsys, via_link):
    config_path, container = demo_files
    main(["run", str(config_path)])
    before = container.read_bytes()
    out = same_file_name(tmp_path, container, via_link)
    assert main(["export", str(container), str(out)]) == EXIT_ERROR
    assert "overwrite" in capsys.readouterr().err
    assert container.read_bytes() == before


def test_diff_with_itself_is_empty(demo_files, capsys):
    config_path, out = demo_files
    main(["run", str(config_path)])
    capsys.readouterr()
    assert main(["diff", str(out), str(out)]) == EXIT_OK
    assert "identical" in capsys.readouterr().out


def test_diff_isolates_single_changed_key(tmp_path, capsys):
    # same output path for both runs, so the seed is the one changed value
    out = tmp_path / "year.pdc"
    kept = tmp_path / "year2011.pdc"
    for seed in (2011, 2012):
        cfg = tmp_path / f"seed{seed}.opts"
        write_config(cfg, demo_config(out, RandomEventSource__Seed=seed))
        main(["run", str(cfg)])
        if seed == 2011:
            kept.write_bytes(out.read_bytes())
    capsys.readouterr()
    code = main(["diff", str(kept), str(out)])
    assert code == EXIT_VERIFY
    text = capsys.readouterr().out
    changed = [line for line in text.splitlines() if "->" in line]
    assert changed == ["  RandomEventSource.Seed: 2011 -> 2012"]


def test_diff_reports_one_sided_keys(tmp_path, capsys):
    with_acc = tmp_path / "acc.pdc"
    cfg1 = tmp_path / "acc.opts"
    write_config(cfg1, demo_config(
        with_acc, algorithms=("RandomEventSource", "Accumulator")))
    main(["run", str(cfg1)])
    without = tmp_path / "plainer.pdc"
    cfg2 = tmp_path / "plain.opts"
    write_config(cfg2, demo_config(without, algorithms=("RandomEventSource",)))
    main(["run", str(cfg2)])
    capsys.readouterr()
    assert main(["diff", str(with_acc), str(without)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    assert "only in first:" in text
    assert "Accumulator.Field" in text
    assert main(["diff", str(without), str(with_acc)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    assert "only in first:" not in text
    assert "Accumulator.Field" in text.split("only in second:")[1]


def test_diff_missing_info_errors(tmp_path, capsys):
    plain = tmp_path / "noinfo.pdc"
    cfg = tmp_path / "noinfo.opts"
    write_config(cfg, demo_config(plain, metadata=False))
    main(["run", str(cfg)])
    assert main(["diff", str(plain), str(plain)]) == EXIT_ERROR
