import projrep


def test_every_exported_name_resolves():
    missing = [name for name in projrep.__all__ if not hasattr(projrep, name)]
    assert missing == []
    assert {"SymElement", "WreathElement", "GradedSeries"} <= set(projrep.__all__)
