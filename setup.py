"""Setuptools shim.

The project metadata lives in pyproject.toml.  ``pip install -e .[test]``
is the normal install.  This file keeps the legacy editable install,
``python setup.py develop --no-deps``, working offline in environments
that lack the ``wheel`` package a PEP 660 editable install needs.
"""

from setuptools import setup

setup()
