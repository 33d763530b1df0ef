import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# When a property test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to suggest a patch. Its libcst import raises a
# DeprecationWarning (mypy_extensions.TypedDict) that the suite's
# error::DeprecationWarning filter would turn into an INTERNALERROR ending
# the whole session. Importing it once here, with that warning ignored for
# this import only, keeps the filter for every other import and call.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: the plugin then skips the patch too
        pass
