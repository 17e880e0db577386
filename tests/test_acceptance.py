"""Acceptance battery: one test per criterion in ``frameproof.acceptance.CRITERIA``.

``frameproof selftest`` runs the same list.  Each test prints the same
one-line report as selftest (run pytest with -s to see them all).
"""

from frameproof import acceptance


def _as_test(number, criterion):
    def test():
        ok, detail = criterion()
        line = acceptance.report_line(number, ok, detail)
        print(line)
        assert ok, line

    return test


# Named after the criteria (test_criterion_1_base_fixtures, ...), so each
# keeps a stable test id.
for _number, _criterion in enumerate(acceptance.CRITERIA, 1):
    globals()[f"test_{_criterion.__name__}"] = _as_test(_number, _criterion)
