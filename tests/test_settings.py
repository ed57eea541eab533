"""The repo's pytest settings, run on a scratch test file."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    """Warnings are errors, yet a failing `@given` test, whose report makes
    hypothesis import its patch writer, is counted like any other failure,
    and the tests after it still run."""
    path = pytester.makepyfile(test_scratch="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_given_fails(x):
            assert x != 0

        def test_plain_fails():
            assert False

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        str(path))
    result.assert_outcomes(failed=2, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
