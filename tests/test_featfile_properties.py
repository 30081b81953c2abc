"""Property test of the text feature reader; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import float_reference_rows

from oacpool.errors import ParseError
from oacpool.harness import load_features

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.6f}"),
    st.floats(0.0, 2.3e-308).map(repr),  # subnormals and the smallest normals
)
# float() reads "1_0" and the Arabic-Indic "١٢" as 10 and 12; the rest fail
ODD_TOKENS = st.sampled_from(["1_0", "١٢", "inf", "-inf", "nan", "1e400", "#", "0x10"])
TOKENS = st.one_of(*[NUMBERS] * 9, ODD_TOKENS)
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", " \t"])


@st.composite
def text_grids(draw):
    """A well-formed header over rows that may be ragged, junk or padded by blank lines."""
    num_frames = draw(st.integers(1, 5))
    num_dims = draw(st.integers(1, 5))
    lines = []
    for _ in range(num_frames):
        ragged = [num_dims + 1] + ([num_dims - 1] if num_dims > 1 else [])
        width = draw(st.sampled_from([num_dims] * 8 + ragged))
        line = draw(SEPARATORS).join(draw(st.lists(TOKENS, min_size=width, max_size=width)))
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1)))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "\t"])))
    return f"T={num_frames} K={num_dims}\n" + "\n".join(lines) + "\n"


class TestTextReader:
    """The bulk parse must give float()'s bits, or fail on the line float() fails on."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(text_grids())
    def test_matches_the_float_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("grid") / "seq.txt"
        path.write_text(text, encoding="utf-8")
        want, error = float_reference_rows(text)
        if error is None:
            assert load_features(path).frames.tobytes() == want.tobytes()
        else:
            with pytest.raises(ParseError) as raised:
                load_features(path)
            assert str(raised.value) == f"{path}: {error}"
