"""Exception hierarchy shared by all ramlab modules."""


class RamlabError(Exception):
    """Base class for all errors raised by this package."""


# --- arguments ----------------------------------------------------------------

class UsageError(RamlabError, ValueError):
    """An argument is outside its documented range, whether it came from a
    command-line flag or a library caller (exit code 2)."""


# --- graph construction / validation ---------------------------------------

class IrregularGraph(RamlabError):
    """The input is not n vertices of exactly d neighbors each: a vertex of
    another degree, a neighbor outside [0, n), or input that is not n*d
    integers or (u, v) integer pairs."""


class SelfLoop(RamlabError):
    """A vertex is adjacent to itself."""


class Asymmetric(RamlabError):
    """Adjacency is not symmetric (u lists v but v does not list u)."""


class Disconnected(RamlabError):
    """The graph is not connected."""


class NonSimple(RamlabError):
    """A constructor produced a parallel edge or loop."""


class SamplingExhausted(RamlabError):
    """Rejection sampling failed within the retry budget."""


class ParseError(RamlabError):
    """Graph file is malformed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolation(RamlabError):
    """Loaded or constructed graph fails a RegularGraph invariant."""


# --- walk engine ------------------------------------------------------------

class SpaceMismatch(RamlabError):
    """Distribution lives on the wrong state space for the kernel."""


class SupportViolation(RamlabError):
    """Distribution puts mass outside the reference's support."""


# --- spectral lab -----------------------------------------------------------

class SizeCap(RamlabError):
    """A computation above its size cap, refused before it began: a
    decomposition above its order, a walk above the state-step budget,
    random_regular at d >= 7 (too few pairings are simple), or more than
    2**31 - 1 arcs, whose arc ids would not fit in int32."""


class EigenbasisNotOrthonormal(RamlabError):
    """Supplied adjacency eigenbasis is not orthonormal."""


class VerificationFailed(RamlabError):
    """A decomposition residual exceeded tolerance; carries the component name."""

    def __init__(self, component: str, detail: str = ""):
        super().__init__(f"{component}: {detail}" if detail else component)
        self.component = component


# --- theory -----------------------------------------------------------------

class AlphaDegenerate(RamlabError):
    """Relative entropy undefined: alpha in {0,1} with beta != alpha."""
