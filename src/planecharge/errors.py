"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all graph construction and query errors."""


class AsymmetricAdjacency(GraphError):
    """u lists v but v does not list u."""

    def __init__(self, u: int, v: int):
        super().__init__(f"vertex {u} lists {v} but {v} does not list {u}")
        self.pair = (u, v)


class DuplicateNeighbor(GraphError):
    """A vertex lists the same neighbor more than once."""

    def __init__(self, u: int, v: int):
        super().__init__(f"vertex {u} lists neighbor {v} more than once")
        self.pair = (u, v)


class SelfLoop(GraphError):
    """A vertex lists itself as a neighbor."""

    def __init__(self, u: int):
        super().__init__(f"vertex {u} lists itself")
        self.pair = (u, u)


class UnknownVertex(GraphError):
    def __init__(self, v: int):
        super().__init__(f"unknown vertex id {v!r}")
        self.vertex = v


class KOutOfRange(GraphError):
    def __init__(self, k: int, lengths: range):
        super().__init__(
            f"cycle length {k} outside supported range {lengths[0]}..{lengths[-1]}"
        )
        self.k = k


class MissingList(GraphError):
    def __init__(self, v: int):
        super().__init__(f"no color list supplied for vertex {v}")
        self.vertex = v


class SurplusDemands(GraphError):
    def __init__(self, demands: int, n: int):
        super().__init__(f"{demands} demands given for a graph of {n} vertices")
        self.demands = demands
        self.n = n


class DemandOutOfRange(GraphError, ValueError):
    """A demand or list size that is not an int in 0..MAX_DEMAND."""


class TooManyVertices(GraphError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"{n} vertices exceeds the exact-search limit of {limit}")
        self.n = n
        self.limit = limit


class TooFewVertices(GraphError, ValueError):
    def __init__(self, n: int, minimum: int):
        super().__init__(f"n={n} is below the minimum of {minimum} vertices")
        self.n = n
        self.minimum = minimum


class OverlappingRoles(GraphError):
    """X and R are not disjoint.  (An id outside the vertex range raises
    UnknownVertex.)"""


class UnknownEdgeInY(GraphError):
    """An entry of Y that is not an edge of the graph: a non-edge, not
    exactly two distinct vertices, or not iterable at all.  ``entry`` is the
    entry as a tuple, or as given when it is not iterable."""

    def __init__(self, entry: object):
        super().__init__(f"entry {entry} in Y is not an edge of the graph")
        self.entry = entry


class UnknownConfig(GraphError):
    def __init__(self, config_id: str):
        super().__init__(f"unknown configuration id {config_id!r}")
        self.config_id = config_id


class BadSpecClause(ValueError):
    """A clause of a catalog spec that declares a name twice or with a
    size the grammar does not allow, names a role or face no earlier clause
    declares, names one where the other kind belongs, or is not a clause of
    the spec grammar: a fault in the catalog, not in any input."""

    def __init__(self, config_id: str, clause: str):
        super().__init__(f"spec of {config_id!r}: bad clause {clause!r}")
        self.config_id = config_id
        self.clause = clause


class Disconnected(GraphError):
    """Charge accounting needs a connected graph."""


class UnknownFace(GraphError, IndexError):
    """A face index that is not an int in 0..face_count-1."""

    def __init__(self, face: object):
        super().__init__(f"no face with index {face!r}")
        self.face = face


class NotBigFace(GraphError):
    def __init__(self, face: int, length: int, big_face: int):
        super().__init__(
            f"face {face} has length {length}; edge-level audit needs length >= {big_face}"
        )
        self.face = face
        self.length = length


class NOutOfRange(GraphError):
    def __init__(self, n: int, sizes: range):
        super().__init__(
            f"enumeration size {n} outside supported range {sizes[0]}..{sizes[-1]}"
        )
        self.n = n
