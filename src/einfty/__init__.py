"""Exact integer toolkit for coalgebra structures on simplicial chains.

Import names from the submodules (``einfty.intlinalg``, ``einfty.invariants``
and so on): the package itself loads none of them, so a command pays only
for the modules it runs.
"""

__version__ = "0.1.0"
