"""Edge-input hardening of the offline trace tools.

``python -m repro.bench report --input`` is run against files we do not
control (hand-edited, truncated, produced by newer versions); empty
files, cut-short spans, non-object lines and unknown record types must
yield clean exit codes, and the report renders whatever records it is
given — never tracebacks.
"""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.obs.export import load_records
from repro.obs.report import render
from repro.obs.validate import read_trace, validate_records


def validate_file(path, warnings=None) -> list[str]:
    """The schema violations of one trace file (empty list == valid)."""
    return read_trace(path, warnings)[1]


def validate_main(argv: list[str]) -> int:
    """``python -m repro.bench report --input <file>`` on ``argv``."""
    return bench_main(["report", "--input", *argv])


def meta_line(**overrides):
    record = {"type": "meta", "version": 2, "schema_version": 2,
              "spans": 1, "dropped": 0, "open_spans": 0}
    record.update(overrides)
    return json.dumps(record)


def span_line(**overrides):
    record = {"type": "span", "span_id": 1, "parent_id": 0,
              "name": "s", "layer": "server", "kind": "span",
              "status": "ok", "start": 0.0, "end": 1.0, "attrs": {}}
    record.update(overrides)
    return json.dumps(record)


# ---------------------------------------------------------------------------
# Report CLI exit codes
# ---------------------------------------------------------------------------


def test_empty_file_is_invalid_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert validate_file(path) == [f"{path}: empty trace file"]
    assert validate_main([str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_valid_file_exit_0(tmp_path, capsys):
    path = tmp_path / "ok.jsonl"
    path.write_text(meta_line() + "\n" + span_line() + "\n")
    assert validate_main([str(path)]) == 0
    assert "trace is valid" in capsys.readouterr().out


def test_usage_error_exit_2(capsys):
    for argv in ([], ["a", "b"]):
        with pytest.raises(SystemExit) as exit_info:
            validate_main(argv)
        assert exit_info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_non_object_line_is_invalid_exit_1(tmp_path, capsys):
    """A line that is JSON but not an object is reported, not crashed
    on (the span report this one replaced died on it with
    ``AttributeError``)."""
    path = tmp_path / "int.jsonl"
    path.write_text(meta_line() + "\n42\n")
    assert validate_main([str(path)]) == 1
    assert "INVALID: record 2: not an object" in capsys.readouterr().err
    assert "Spans by layer" not in render(load_records(path))


def test_span_missing_end_is_invalid(tmp_path):
    path = tmp_path / "cut.jsonl"
    record = json.loads(span_line())
    del record["end"]
    path.write_text(meta_line() + "\n" + json.dumps(record) + "\n")
    errors = validate_file(path)
    assert any("missing field 'end'" in e for e in errors)
    assert validate_main([str(path)]) == 1


def test_unknown_record_type_is_invalid(tmp_path):
    path = tmp_path / "weird.jsonl"
    path.write_text(meta_line()
                    + '\n{"type": "hologram", "x": 1}\n')
    errors = validate_file(path)
    assert any("unknown record type 'hologram'" in e for e in errors)
    assert validate_main([str(path)]) == 1


def test_nonexistent_file_reports_not_crashes(tmp_path):
    errors = validate_file(tmp_path / "missing.jsonl")
    assert len(errors) == 1
    assert validate_main([str(tmp_path / "missing.jsonl")]) == 1


# ---------------------------------------------------------------------------
# Schema versioning (satellite: versioned exports)
# ---------------------------------------------------------------------------


def test_unknown_schema_version_warns_but_validates(tmp_path, capsys):
    path = tmp_path / "future.jsonl"
    path.write_text(meta_line(version=99, schema_version=99) + "\n"
                    + span_line() + "\n")
    with pytest.warns(UserWarning, match="schema version 99"):
        load_records(path)
    warnings: list[str] = []
    assert validate_file(path, warnings=warnings) == []
    assert any("schema version 99" in w for w in warnings)
    # The CLI surfaces it as a warning yet still exits 0.
    assert validate_main([str(path)]) == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    assert "trace is valid" in captured.out


def test_known_schema_versions_do_not_warn(tmp_path, capsys):
    import warnings as warnings_module

    for version in (1, 2, 3):
        path = tmp_path / f"v{version}.jsonl"
        path.write_text(meta_line(version=version,
                                  schema_version=version) + "\n"
                        + span_line() + "\n")
        if version == 3:
            # Version 3's meta carries the ledger's identity violations.
            assert validate_main([str(path)]) == 1
            assert "meta.identity_violations" in capsys.readouterr().err
            path.write_text(meta_line(version=3, schema_version=3,
                                      identity_violations=[]) + "\n"
                            + span_line() + "\n")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            load_records(path)
        assert validate_main([str(path)]) == 0
        assert "WARNING" not in capsys.readouterr().err


def test_recovery_records_are_checked(tmp_path):
    good = {"type": "recovery", "recovery_id": 1, "finished_at": 2.5,
            "phases": [["reconnect", 0.25], ["reposition", 0.0]]}
    meta = json.loads(meta_line(version=3, schema_version=3, spans=0,
                                identity_violations=[]))
    assert validate_records([meta, good]) == []
    for field, bad in (("recovery_id", "1"), ("finished_at", None),
                       ("phases", [["reconnect"]]),
                       ("phases", [[0.25, "reconnect"]])):
        errors = validate_records([meta, {**good, field: bad}])
        assert any(f"recovery.{field}" in e for e in errors), (field, bad)


def test_legacy_version_field_alone_is_honored(tmp_path, capsys):
    """Version-1 files carried only ``version``."""
    record = json.loads(meta_line(version=77))
    del record["schema_version"]
    out: list[str] = []
    validate_records([record], warnings=out)
    assert any("schema version 77" in w for w in out)
    path = tmp_path / "legacy.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert validate_main([str(path)]) == 0
    assert "schema version 77" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The report on the same edge inputs
# ---------------------------------------------------------------------------


def test_trace_report_renders_on_empty_span_set(tmp_path):
    path = tmp_path / "nospans.jsonl"
    path.write_text(meta_line(spans=0) + "\n")
    assert validate_main([str(path)]) == 0
    text = render(load_records(path), source="nospans")
    assert text == "nospans: no records to report"


def test_trace_report_counts_missing_end_as_malformed(tmp_path):
    record = json.loads(span_line())
    del record["end"]
    path = tmp_path / "cut.jsonl"
    path.write_text(meta_line() + "\n" + span_line() + "\n"
                    + json.dumps(record) + "\n")
    text = render(load_records(path))
    assert "(2 spans" in text
    assert "skipped 1 malformed spans" in text


def test_trace_report_ignores_unknown_record_types(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(meta_line() + "\n" + span_line() + "\n"
                    + '{"type": "hologram"}\n')
    text = render(load_records(path))
    assert "(1 spans" in text
    assert "malformed" not in text
