"""liaisonkit: exact integer intersection theory on rational surfaces,
liaison and biliaison chain search, and Hilbert-function linkage for
point configurations.

The package is organized as:

* ``errors``      - the typed exceptions
* ``lattice``     - divisor classes and the intersection pairing
* ``surfaces``    - the surface catalog and line/conic enumeration
* ``curves``      - curve records, secant profiles, minimal curves
* ``liaison``     - biliaison, Gorenstein links, chain search
* ``search``      - the deterministic breadth-first core of both chain searches
* ``hvectors``    - O-sequences, Gorenstein h-vectors, linkage, ACM h-vectors
* ``glicci``      - point-configuration link chains
* ``experiments`` - scripted reproductions with reference values
* ``cli``         - the ``liaisonkit`` command

The package re-exports nothing: import each name from its module, so
that importing one layer loads only the layers it uses.
"""

__version__ = "0.1.0"
