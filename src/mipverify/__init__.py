"""Verification toolkit for non-isomorphic 2-groups with isomorphic modular group algebras.

Names are imported from their modules (``mipverify.family``,
``mipverify.witness``, ...); the package root loads none of them, so a
command imports only the layers it runs.
"""

__version__ = "0.1.0"
