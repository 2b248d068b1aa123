"""Undirected areal graphs, Laplacians, and penalty-matrix assembly."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse import csgraph

from .errors import ConfigError, SchemaError, read_lines


@dataclass(frozen=True)
class ArealGraph:
    """An undirected graph over labeled areal units.

    Edges are canonical (i < j), deduplicated, with no self-loops.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ConfigError("graph needs at least one vertex")
        if len(self.labels) != self.n_vertices:
            raise ConfigError("label count must equal vertex count")
        if len(set(self.labels)) != self.n_vertices:
            raise ConfigError("vertex labels must be unique")
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ConfigError(f"self-loop at vertex {a}")
            if not (0 <= a < b < self.n_vertices):
                raise ConfigError(f"edge ({a}, {b}) out of range or "
                                  "not canonical")
            if (a, b) in seen:
                raise ConfigError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))

    @classmethod
    def from_edges(cls, n_vertices: int, edges, labels=None) -> "ArealGraph":
        canon = sorted({(min(a, b), max(a, b)) for a, b in edges})
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n_vertices))
        return cls(n_vertices, tuple(canon), tuple(labels))

    @classmethod
    def from_edge_list_file(cls, path) -> "ArealGraph":
        """Parse the tab-separated edge-list format.

        One edge per line as ``labelA<TAB>labelB``; a label alone on a
        line declares an isolated vertex; lines starting with ``#`` are
        ignored. The vertex universe is the union of all labels, in
        first-appearance order.
        """
        order: list[str] = []
        index: dict[str, int] = {}

        def vid(label: str) -> int:
            if label not in index:
                index[label] = len(order)
                order.append(label)
            return index[label]

        pairs = []
        for lineno, raw in enumerate(read_lines(path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                vid(parts[0])
            elif len(parts) == 2:
                a, b = vid(parts[0]), vid(parts[1])
                if a == b:
                    raise SchemaError(
                        f"{path}:{lineno}: self-loop on {parts[0]!r}")
                pairs.append((a, b))
            else:
                raise SchemaError(
                    f"{path}:{lineno}: expected 1 or 2 tab-separated "
                    f"labels, got {len(parts)}")
        return cls.from_edges(len(order), pairs, tuple(order))

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) integer array."""
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)

    @cached_property
    def laplacian(self) -> sparse.csr_matrix:
        """``build_laplacian`` of this graph, built on first use and kept."""
        return build_laplacian(self)

    @cached_property
    def laplacian_band(self) -> "SpatialBand":
        """The Laplacian laid out by ``lower_band`` in the reverse
        Cuthill-McKee order of its pattern with the whole diagonal, which
        holds lambda1*I + lambda2*Laplacian for every lambda1 >= 0 and
        lambda2 > 0; built on first use and kept."""
        n = self.n_vertices
        unit = lower_band(sparse.csr_matrix(sparse.eye(n) + self.laplacian))
        unit.ab[0] -= 1.0
        return unit

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(),
                           minlength=self.n_vertices).astype(float)


def build_laplacian(g: ArealGraph) -> sparse.csr_matrix:
    """Graph Laplacian: degree matrix minus adjacency matrix, with no
    stored entry for an isolated vertex."""
    n = g.n_vertices
    a, b = g.edge_array.T
    deg = g.degrees()
    diag = np.flatnonzero(deg)
    rows = np.concatenate([a, b, diag])
    cols = np.concatenate([b, a, diag])
    data = np.concatenate([-np.ones(2 * a.size), deg[diag]])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def lattice_graph(rows: int, cols: int) -> ArealGraph:
    """Regular rows x cols lattice with rook (4-neighbor) adjacency."""
    if rows < 1 or cols < 1:
        raise ConfigError("lattice dimensions must be positive")

    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    labels = tuple(f"r{r}c{c}" for r in range(rows) for c in range(cols))
    return ArealGraph.from_edges(rows * cols, edges, labels)


class PenaltyMode(enum.Enum):
    SPATIAL_ONLY = "spatial"
    SPATIAL_PLUS_RIDGE = "spatial+ridge"

    @classmethod
    def from_name(cls, name: str) -> "PenaltyMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ConfigError(f"unknown penalty mode {name!r}")


@dataclass(frozen=True, eq=False)
class PenaltyConfig:
    """Quadratic penalty 0.5 * (A theta)' [l1*I0 + l2*W0] (A theta).

    ``SPATIAL_ONLY`` masks everything but the spatial block, with I0 the
    spatial identity and W0 the Laplacian block. ``SPATIAL_PLUS_RIDGE``
    penalizes the full coefficient vector with an identity I0 while W0
    keeps its single Laplacian block. The Laplacian and its band layout
    belong to the ``graph``, which builds each once and shares it with
    every penalty on it.
    """

    mode: PenaltyMode
    lambda1: float
    lambda2: float
    k_beta: int
    k_gamma: int
    graph: ArealGraph

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def laplacian(self) -> sparse.csr_matrix:
        return self.graph.laplacian

    @property
    def dim(self) -> int:
        return self.k_beta + self.n_vertices + self.k_gamma

    def value(self, theta_vec: np.ndarray) -> float:
        """Penalty value at a packed (beta, alpha, gamma) vector."""
        v = np.asarray(theta_vec, dtype=float)
        if v.shape != (self.dim,):
            raise ConfigError(
                f"expected coefficient vector of length {self.dim}, "
                f"got {v.shape}")
        kb, nv = self.k_beta, self.n_vertices
        alpha = v[kb:kb + nv]
        quad = self.lambda2 * float(alpha @ (self.laplacian @ alpha))
        covered = self.covered(v)
        quad += self.lambda1 * float(covered @ covered)
        return 0.5 * quad

    @property
    def ridge(self) -> float:
        """The multiplier of the identity on beta and gamma: lambda1
        under ``SPATIAL_PLUS_RIDGE``, else 0."""
        return (self.lambda1 if self.mode is PenaltyMode.SPATIAL_PLUS_RIDGE
                else 0.0)

    def covered(self, vec: np.ndarray) -> np.ndarray:
        """The part of a packed (beta, alpha, gamma) vector that the
        lambda1 term penalizes: all of it with a ridge, else alpha."""
        kb = self.k_beta
        return vec if self.ridge else vec[kb:kb + self.n_vertices]

    def gradient(self, theta_vec: np.ndarray) -> np.ndarray:
        """Gradient of ``value`` at a packed (beta, alpha, gamma) vector."""
        v = np.asarray(theta_vec, dtype=float)
        kb, nv = self.k_beta, self.n_vertices
        alpha = v[kb:kb + nv]
        out = self.ridge * v if self.ridge else np.zeros_like(v)
        out[kb:kb + nv] = (self.lambda1 * alpha
                           + self.lambda2 * (self.laplacian @ alpha))
        return out

    def eta_matrix(self) -> sparse.csr_matrix:
        """lambda1*I0 + lambda2*W0 restricted to the (beta, alpha) block."""
        return sparse.block_diag(
            [self.ridge * sparse.eye(self.k_beta),
             self.alpha_penalty_matrix()], format="csr")

    def alpha_penalty_matrix(self) -> sparse.csr_matrix:
        """lambda1*I + lambda2*Laplacian over the alpha block only."""
        nv = self.n_vertices
        return sparse.csr_matrix(
            self.lambda1 * sparse.eye(nv) + self.lambda2 * self.laplacian)

    @cached_property
    def alpha_band(self) -> "SpatialBand":
        """``alpha_penalty_matrix`` laid out for the banded mean-step
        solve; built on first use and kept for this penalty's life. With
        lambda2 > 0 it is the graph's ``laplacian_band`` scaled, so the
        cells of a grid search share one ordering; with lambda2 = 0 it
        is the diagonal lambda1*I in vertex order."""
        n = self.n_vertices
        if self.lambda2 == 0:
            return SpatialBand(np.arange(n), np.arange(n),
                               np.full((1, n), self.lambda1))
        unit = self.graph.laplacian_band
        ab = self.lambda2 * unit.ab
        ab[0] += self.lambda1
        return SpatialBand(unit.order, unit.inverse, ab)

    @cached_property
    def alpha_components(self) -> np.ndarray:
        """Each vertex's component in the graph of lambda2*Laplacian."""
        if self.lambda2 == 0:
            return np.arange(self.n_vertices)
        return csgraph.connected_components(self.laplacian)[1]


@dataclass(frozen=True, eq=False)
class SpatialBand:
    """A matrix in reverse Cuthill-McKee order, as the lower band of
    LAPACK's banded storage: ``ab[d, k]`` holds entry (k + d, k) of the
    permuted matrix, whose row k is vertex ``order[k]``; ``inverse``
    maps a vertex to its permuted row. The matrix is symmetric, or, as
    ``factor`` returns it, the lower-triangular Cholesky factor L of
    one. ``ab`` is column-major, the layout LAPACK reads, so that
    ``factor`` hands its one copy of the band to LAPACK in place."""

    order: np.ndarray
    inverse: np.ndarray
    ab: np.ndarray

    def factor(self, diag: np.ndarray) -> "SpatialBand | None":
        """The banded Cholesky factor L of P (M + diag(diag)) P', for the
        symmetric matrix M held here and P its permutation, with
        ``diag`` in vertex order. LAPACK stops at the first pivot that
        is not positive, so None comes back exactly when
        M + diag(diag) is not positive definite."""
        ab = self.ab.copy(order="F")
        ab[0] += diag[self.order]
        low, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0 or np.isnan(low[0]).any():  # NaN passes the pivot test
            return None
        return SpatialBand(self.order, self.inverse, low)

    def forward(self, cols: np.ndarray) -> np.ndarray:
        """L^{-1} P cols for the factor L held here, with the rows of
        ``cols`` in vertex order and those of the result in the band's:
        the forward half of a solve, whose column products are those
        of a Schur complement."""
        return lapack.dtbtrs(self.ab, cols[self.order], uplo="L")[0]

    def back(self, rows: np.ndarray) -> np.ndarray:
        """P' L^{-T} rows for the factor L held here, with ``rows`` in
        the band's order and the result's rows in vertex order: the
        back half of a solve, so that ``back(forward(b))`` solves the
        factored system for b."""
        return lapack.dtbtrs(self.ab, rows, uplo="L",
                             trans="T")[0][self.inverse]


def lower_band(mat: sparse.csr_matrix) -> SpatialBand:
    """Reorder a symmetric sparse matrix by reverse Cuthill-McKee and
    store its lower band, column-major, as wide as the farthest nonzero
    entry from the diagonal."""
    n = mat.shape[0]
    order = csgraph.reverse_cuthill_mckee(mat, symmetric_mode=True)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    coo = mat.tocoo()
    row, col = inverse[coo.row], inverse[coo.col]
    keep = (row >= col) & (coo.data != 0)
    row, col = row[keep], col[keep]
    depth = row - col
    ab = np.zeros((int(depth.max(initial=0)) + 1, n), order="F")
    ab[depth, col] = coo.data[keep]
    return SpatialBand(order, inverse, ab)


def assemble_penalty(mode: PenaltyMode | str, lambda1: float, lambda2: float,
                     k_beta: int, g: ArealGraph, k_gamma: int) -> PenaltyConfig:
    """Build the penalty for a coefficient layout (k_beta, L, k_gamma)."""
    if isinstance(mode, str):
        mode = PenaltyMode.from_name(mode)
    if not (0 <= lambda1 < np.inf and 0 <= lambda2 < np.inf):
        raise ConfigError("penalty multipliers must be finite and "
                          "nonnegative")
    # the largest entry of lambda1*I + lambda2*L is at the top degree
    top = float(lambda1) + float(lambda2) * float(g.degrees().max(initial=0))
    if top == np.inf:
        raise ConfigError(f"penalty multipliers lambda1 = {lambda1:g} and "
                          f"lambda2 = {lambda2:g} overflow: lambda1*I + "
                          "lambda2*L has an entry that is not finite")
    if k_beta < 0 or k_gamma < 0:
        raise ConfigError("design dimensions must be nonnegative")
    return PenaltyConfig(mode, float(lambda1), float(lambda2), k_beta,
                         k_gamma, g)
