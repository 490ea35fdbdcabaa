"""The scan walk and the tree conversion take one Python frame per nesting level, so ``MAX_DEPTH`` frames suffice."""

import sys

import wflens
from wflens import model

from test_scan_kernel import nested_sequences

HEADROOM = model.MAX_DEPTH + 64
DEEPEST = nested_sequences(model.MAX_DEPTH - 1)


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def within_headroom(call):
    """``call()`` with only HEADROOM frames left under the recursion limit."""

    def below(levels):
        if levels > 0:
            return below(levels - 1)
        return call()

    return below(sys.getrecursionlimit() - HEADROOM - stack_depth())


def test_deepest_accepted_document_scans_within_its_headroom():
    result = within_headroom(lambda: wflens.scan_text(DEEPEST, "deep.yml"))
    assert result.error is None
    assert result.bag.total_paths == model.MAX_DEPTH - 1


def test_deepest_accepted_document_parses_within_its_headroom():
    tree = within_headroom(lambda: wflens.parse_workflow(DEEPEST))
    assert len(wflens.enumerate_paths(tree)) == model.MAX_DEPTH - 1
