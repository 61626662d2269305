"""Every output of the pinned run matrix and every criterion 1-9 detail,
bit for bit as `regenerate.py` wrote them to outputs.json."""

import json

import regenerate


def test_every_pinned_output_is_unchanged():
    want = json.loads(regenerate.GOLDEN.read_text(encoding="utf-8"))
    got = regenerate.outputs()
    assert regenerate.changed(got, want) == []
