"""The scan walk takes one Python frame per nesting level, so ``MAX_DEPTH`` frames suffice."""

import sys

import wflens
from wflens import model

from test_scan_kernel import nested_sequences

HEADROOM = model.MAX_DEPTH + 64


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deepest_accepted_document_scans_within_its_headroom():
    text = nested_sequences(model.MAX_DEPTH - 1)

    def below(levels):
        if levels > 0:
            return below(levels - 1)
        return wflens.scan_text(text, "deep.yml")

    # Recurse until only HEADROOM frames are left under the recursion limit.
    result = below(sys.getrecursionlimit() - HEADROOM - stack_depth())
    assert result.error is None
    assert result.bag.total_paths == model.MAX_DEPTH - 1
