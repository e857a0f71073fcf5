"""The package's public names: ``__all__`` lists each once, and each resolves."""

import scientoscope


def test_every_public_name_resolves_under_a_star_import():
    # A star import raises AttributeError on a name of __all__ that the
    # package no longer binds; nothing else imports every listed name.
    exec("from scientoscope import *", {})
    assert len(set(scientoscope.__all__)) == len(scientoscope.__all__)
