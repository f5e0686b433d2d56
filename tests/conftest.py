"""Session setup shared by the test modules.

Hypothesis reports a failing property through ``hypothesis.extra._patching``,
which imports ``libcst`` when it is installed, and ``libcst``'s import
raises a ``DeprecationWarning`` (its use of ``mypy_extensions.TypedDict``).
Under ``-W error`` that warning became an INTERNALERROR that ended the run
without naming the failing test. An ``ini`` filter cannot help, because
pytest applies ``-W`` after it, so ``libcst`` is imported here once with
that warning ignored; later imports find it loaded. Without ``libcst``
Hypothesis skips the import quietly, and so does this.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
