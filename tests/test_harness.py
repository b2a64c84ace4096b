"""The suite's own configuration: a failing property law is reported with
its falsifying example, and the session runs on past it."""

import pathlib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_law_is_reported_and_the_session_runs_on(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_law="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_law(n):
            assert n < 0

        def test_after_the_law():
            pass
    """)
    result = pytester.runpytest_subprocess("test_law.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
