"""Setuptools shim for environments without network access.

The canonical metadata lives in ``pyproject.toml``.  This file keeps
``python setup.py develop`` (and ``python setup.py --name``/``--version``)
working where only setuptools is installed;
``python -m pip install --no-build-isolation --no-deps -e .`` also needs
the ``wheel`` package.
"""

from setuptools import setup

setup()
