"""faircheck: decide linear-time properties of finite-state systems within fairness.

The package splits into six layers: word and automaton machinery
(:mod:`faircheck.automata`), past-free linear temporal logic with its
normal forms and transformations (:mod:`faircheck.pltl`), the relative
liveness and safety decisions (:mod:`faircheck.relprops`), alphabet
homomorphisms with the weak-continuation-closure check and the
preservation pipeline (:mod:`faircheck.abstraction`), synthesis of fair
finite-state implementations (:mod:`faircheck.synthesis`), and the text
formats plus command line front end (:mod:`faircheck.formats`,
:mod:`faircheck.cli`).  Each of the first six declares its public names in
its ``__all__``, and this package re-exports all six lists.
"""

from faircheck.automata import *
from faircheck.pltl import *
from faircheck.relprops import *
from faircheck.abstraction import *
from faircheck.synthesis import *
from faircheck.formats import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += automata.__all__
__all__ += pltl.__all__
__all__ += relprops.__all__
__all__ += abstraction.__all__
__all__ += synthesis.__all__
__all__ += formats.__all__
