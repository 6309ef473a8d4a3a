"""Sign deloopings on concrete finite sets.

Each name is imported from its module, and `import signdeloop` loads none
of them:

* signdeloop.finite - labeled sets and the bijections between them;
* signdeloop.perms - signs, inversion parity and transposition factoring;
* signdeloop.cycles - cycle forms of permutations and of arbitrary self-maps;
* signdeloop.quotients - quotients of decidable equivalence relations;
* signdeloop.deloopings - the four two-element-family constructions with
  recognition and uniqueness checkers;
* signdeloop.verify - the invariant suite behind `signdeloop verify`;
* signdeloop.cli - the `signdeloop` command.
"""

__version__ = "0.1.0"
