"""The function map of tests/unexecuted.py's --reach mode, without tracing."""

import ast

import unexecuted

SOURCE = '''\
def public(x):
    """A docstring is no body statement."""
    y = x + 1
    return y


def _helper():
    return 1


class Thing:
    def method(self):
        if self:
            return 1
        return 2

    def _private(self):
        return 3

    def __repr__(self):
        return "Thing"


class _Hidden:
    def method(self):
        return 4


def stub():
    """Only a docstring."""
'''


def test_public_defs_map_each_public_function_and_method_to_its_body_lines():
    defs = unexecuted.public_defs(ast.parse(SOURCE))
    # a compound statement owns its header through its first body line, and
    # a body of a docstring alone owns no line, so it is never reached
    assert defs == {"public": (1, {3, 4}), "Thing.method": (12, {13, 14, 15}),
                    "stub": (29, set())}


def test_every_reach_allowlist_entry_names_a_public_def_with_a_reason():
    public = {f"{path.stem}.{qual}" for path in unexecuted.PACKAGE.glob("*.py")
              for qual in unexecuted.public_defs(ast.parse(path.read_text()))}
    assert set(unexecuted.REACH_ALLOWED) <= public
    assert all(reason.strip() for reason in unexecuted.REACH_ALLOWED.values())
