"""Piecewise motion operators and the conjugate-gradient velocity solve.

The unknown is a per-pixel 2-vector velocity stored on a single grid; pixels
carry the velocity of whichever labelled region they belong to.  Smoothing is
applied only between same-label neighbours.  Where two regions meet, the
missing cross-interface neighbour value is a ghost obtained in closed form
from the interface condition, which turns into an extra stencil term that
couples only the normal components of the two sides.

Modes:

* ``hard``        - interface normal components matched exactly; coupling
                    weight ``a_i a_o / (a_i + a_o)`` per cross pair.
* ``soft``        - quadratic interface penalty of weight ``beta``; coupling
                    weights ``a_i b(b - a_o) / (b^2 - a_i a_o)`` and
                    ``a_o b(b - a_i) / (b^2 - a_i a_o)`` on the two sides.
* ``global``      - one region covering the whole grid (classical global
                    smoothing with weight ``alpha_in``).
* ``region_only`` - every labelled region solved independently with
                    homogeneous Neumann interface conditions (no coupling).

Missing neighbours at the domain boundary contribute nothing.  All operators
are applied matrix-free, in stencil form: :class:`MotionOperator` keeps the
data term as per-pixel ``g g^T`` entries, the smoothing as one weight per
right and per down edge (zero across a label cut), and the interface
coupling as a rank-1 normal term per cross-label pair, and applies them to
the flat interleaved view of the ``(h, w, 2)`` field by shifted slices.  The
system is solved by plain conjugate gradient from a zero initial guess,
which on singular-but-consistent systems returns the minimum-norm solution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridShapeError, NumericalError
from .grid import (
    RegionPartition,
    gradient_region_aware,
    project_normal,
    require_same_shape,
)

__all__ = [
    "MODES",
    "CGResult",
    "MotionOperator",
    "PiecewiseVelocity",
    "SolveResult",
    "SolverConfig",
    "energy",
    "ghost_values_hard",
    "ghost_values_soft",
    "solve_cg",
    "solve_infinitesimal",
]

MODES = ("hard", "soft", "global", "region_only")

CG_MAX_ITER_CAP = 2000


@dataclass(frozen=True)
class SolverConfig:
    """Regularisation weights, interface mode, and CG controls.

    ``alpha_in`` applies to labels >= 1 and ``alpha_out`` to label 0 unless
    ``alpha_per_label`` supplies one weight per label explicitly.
    """

    alpha_in: float = 3.0
    alpha_out: float = 3.0
    beta: float = 100.0
    mode: str = "hard"
    cg_rel_tol: float = 1e-8
    cg_max_iter: int | None = None
    alpha_per_label: tuple | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not (self.alpha_in > 0 and self.alpha_out > 0):
            raise ConfigError("alpha_in and alpha_out must be positive")
        if self.cg_rel_tol <= 0:
            raise ConfigError("cg_rel_tol must be positive")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ConfigError("cg_max_iter must be at least 1")
        if self.alpha_per_label is not None:
            if any(a <= 0 for a in self.alpha_per_label):
                raise ConfigError("all per-label alphas must be positive")
        if self.mode == "soft":
            if self.beta <= 0:
                raise ConfigError("soft mode requires beta > 0")
            _check_soft_denominator(self.beta, self.alpha_in, self.alpha_out)

    def label_alphas(self, n_labels: int) -> np.ndarray:
        """Smoothing weight per label index (label 0 is the exterior)."""
        if self.alpha_per_label is not None:
            if len(self.alpha_per_label) < n_labels:
                raise ConfigError(
                    f"alpha_per_label has {len(self.alpha_per_label)} entries, "
                    f"need {n_labels}"
                )
            return np.asarray(self.alpha_per_label[:n_labels], dtype=np.float64)
        out = np.full(n_labels, self.alpha_in, dtype=np.float64)
        if n_labels > 0:
            out[0] = self.alpha_out
        return out

    def resolved_max_iter(self, n_unknowns: int) -> int:
        if self.cg_max_iter is not None:
            return int(self.cg_max_iter)
        return min(CG_MAX_ITER_CAP, max(1, int(10 * math.sqrt(n_unknowns))))


def _check_soft_denominator(beta, alpha_a, alpha_b):
    den = beta * beta - np.asarray(alpha_a) * np.asarray(alpha_b)
    tol = 1e-9 * max(1.0, beta * beta)
    if np.any(np.abs(den) <= tol):
        raise ConfigError(
            "soft mode is singular: beta^2 is too close to the product of the "
            "two smoothing weights"
        )


@dataclass
class PiecewiseVelocity:
    """Per-pixel velocity field together with the partition it lives on.

    Inside/outside values share one grid; each pixel's entry belongs to its
    own label.  Cross-interface ghost values are recomputed on demand by the
    operator and never stored.
    """

    field: np.ndarray
    partition: RegionPartition

    def __post_init__(self):
        self.field = np.asarray(self.field, dtype=np.float64)
        if self.field.shape != (self.partition.height, self.partition.width, 2):
            raise GridShapeError(
                f"velocity shape {self.field.shape} does not match partition "
                f"{(self.partition.height, self.partition.width, 2)}"
            )
        if not np.all(np.isfinite(self.field)):
            raise ValueError("velocity field contains non-finite values")

    @property
    def max_norm(self) -> float:
        if self.field.size == 0:
            return 0.0
        return float(np.sqrt((self.field**2).sum(axis=-1)).max())


def _ghost_coefficients(mode: str, alpha_a, alpha_b, beta):
    """Extension coefficients (C, D) for one interface pair (a, b).

    The a-side field extended to pixel b is ``v_a(b) = v_a(a) + C pi_N(d)``
    and the b-side field extended to pixel a is ``v_b(a) = v_b(b) - D pi_N(d)``
    with ``d = v_b(b) - v_a(a)``.
    """
    alpha_a = np.asarray(alpha_a, dtype=np.float64)
    alpha_b = np.asarray(alpha_b, dtype=np.float64)
    if mode == "hard":
        s = alpha_a + alpha_b
        return alpha_b / s, alpha_a / s
    if mode == "soft":
        den = beta * beta - alpha_a * alpha_b
        return beta * (beta - alpha_b) / den, beta * (beta - alpha_a) / den
    # Neumann-style modes: the extension is the same-side value itself.
    zero = np.zeros(np.broadcast(alpha_a, alpha_b).shape, dtype=np.float64)
    return zero, zero


def _ghost_values(mode: str, v_in_at_x, v_out_at_y, normal, cfg: SolverConfig):
    v_in = np.asarray(v_in_at_x, dtype=np.float64)
    v_out = np.asarray(v_out_at_y, dtype=np.float64)
    pn = project_normal(v_out - v_in, normal)
    if mode == "soft":
        if cfg.beta <= 0:
            raise ConfigError("soft ghost values require beta > 0")
        _check_soft_denominator(cfg.beta, cfg.alpha_in, cfg.alpha_out)
    c, d = _ghost_coefficients(mode, cfg.alpha_in, cfg.alpha_out, cfg.beta)
    return v_in + c * pn, v_out - d * pn


def ghost_values_hard(v_in_at_x, v_out_at_y, normal, cfg: SolverConfig):
    """Cross-interface ghost values under the exact normal-matching condition.

    Returns ``(v_in_at_y, v_out_at_x)``.  Both share the same normal
    component (a weighted average of the two sides); tangential components
    are copied from the same-side known value.
    """
    return _ghost_values("hard", v_in_at_x, v_out_at_y, normal, cfg)


def ghost_values_soft(v_in_at_x, v_out_at_y, normal, cfg: SolverConfig):
    """Cross-interface ghost values under the quadratic interface penalty.

    Returns ``(v_in_at_y, v_out_at_x)`` evaluated from the closed-form
    elimination of the penalised interface conditions.
    """
    return _ghost_values("soft", v_in_at_x, v_out_at_y, normal, cfg)


def _region_alphas(partition: RegionPartition, cfg: SolverConfig):
    """Effective labels and smoothing weights of the configured mode.

    ``global`` mode smooths one region (label 0 everywhere) with weight
    ``alpha_in``; every other mode weights each label by
    :meth:`SolverConfig.label_alphas`.  Returns ``(labels, alpha_map,
    alpha_a, alpha_b)``: the effective label raster, the per-pixel weight,
    and the weights of the two sides of each interface pair.
    """
    if cfg.mode == "global":
        labels = np.zeros_like(partition.labels)
        alphas = np.array([cfg.alpha_in], dtype=np.float64)
    else:
        labels = partition.labels
        alphas = cfg.label_alphas(int(labels.max()) + 1)
    flat = labels.ravel()
    return (
        labels,
        alphas[labels],
        alphas[flat[partition.pair_a]],
        alphas[flat[partition.pair_b]],
    )


class MotionOperator:
    """Matrix-free application of the piecewise motion operator in stencil form.

    Per pixel the operator evaluates the negated within-region graph
    Laplacian weighted by the region's alpha, the cross-interface normal
    coupling term for the configured mode, and the image-gradient data term
    ``g g^T v``.  Everything an application needs is precomputed as stencil
    arrays over the flat, interleaved view of the ``(h, w, 2)`` field (entry
    ``2 i + c`` is component ``c`` of pixel ``i = y w + x``):

    * ``data_diag`` (``2hw``): ``g_x^2`` and ``g_y^2`` interleaved, and
      ``data_cross`` (``hw``): ``g_x g_y``;
    * ``weight_right`` / ``weight_down`` (``2hw``): the smoothing weight of
      the edge from an entry to the same component one pixel right
      (offset 2) or one row down (offset ``2w``).  It is the region's alpha
      between same-label neighbours and 0 across a label cut, at a row end
      and on the last row;
    * the interface pairs ``pair_a``/``pair_b`` with the partition's unit
      normals and per-side couplings ``couple_a``/``couple_b`` (zero
      outside ``hard`` and ``soft``; the two differ when the sides' alphas
      do).  Pair ``(a, b)`` adds ``-couple_a (n.d) n`` at ``a`` and
      ``+couple_b (n.d) n`` at ``b`` with ``d = v(b) - v(a)``.

    One application is then a few whole-array passes: an edge term is a
    difference of two shifted views of the flat field, and the coupling is
    scattered in two groups, the partition's horizontal pairs and then its
    vertical ones (it lists them in that order), within which no pixel
    repeats, so plain fancy-index updates are exact.

    The operator is the one home of the discrete problem: :meth:`rhs`
    builds the right-hand side from the same ``gradient``, and
    :func:`energy` reads the gradient and the edge weights.
    """

    def __init__(self, image, partition: RegionPartition, cfg: SolverConfig):
        image = np.asarray(image, dtype=np.float64)
        require_same_shape(image, partition.labels)
        self.cfg = cfg
        self.partition = partition
        self.image = image
        self.shape = image.shape
        h, w = image.shape

        self.labels_eff, self.alpha_map, alpha_a, alpha_b = _region_alphas(
            partition, cfg
        )
        self.gradient = gradient_region_aware(image, self.labels_eff)

        # data term
        self.data_diag = (self.gradient * self.gradient).reshape(-1)
        self.data_cross = (self.gradient[..., 0] * self.gradient[..., 1]).reshape(-1)

        # within-region smoothing, one weight per edge to the right / below
        labels = self.labels_eff
        right = np.zeros((h, w))
        right[:, :-1] = np.where(
            labels[:, :-1] == labels[:, 1:], self.alpha_map[:, :-1], 0.0
        )
        down = np.zeros((h, w))
        down[:-1, :] = np.where(
            labels[:-1, :] == labels[1:, :], self.alpha_map[:-1, :], 0.0
        )
        self.weight_right = np.repeat(right.reshape(-1), 2)
        self.weight_down = np.repeat(down.reshape(-1), 2)
        # (offset, weights of the edges leaving entries [0, 2hw - offset), buffer)
        self._edges = [
            (off, wt[:-off], np.empty(wt.size - off))
            for off, wt in ((2, self.weight_right), (2 * w, self.weight_down))
            if wt.any()
        ]
        self._cross_buf = np.empty(h * w)

        # interface coupling
        if cfg.mode == "global":
            # one region: no interface pairs at all
            self.pair_a = np.zeros(0, dtype=np.int64)
            self.pair_b = np.zeros(0, dtype=np.int64)
        else:
            self.pair_a = partition.pair_a
            self.pair_b = partition.pair_b
        if cfg.mode in ("hard", "soft"):
            if cfg.mode == "soft":
                _check_soft_denominator(cfg.beta, alpha_a, alpha_b)
            c_ext, d_ext = _ghost_coefficients(cfg.mode, alpha_a, alpha_b, cfg.beta)
            self.couple_a = alpha_a * c_ext
            self.couple_b = alpha_b * d_ext
        else:
            self.couple_a = np.zeros(self.pair_a.shape[0])
            self.couple_b = np.zeros(self.pair_a.shape[0])

        # (pairs, normals, couple * normal per side, scatter groups), or None
        # when no pair couples; the partition lists horizontal pairs first
        self._coupling = None
        if cfg.mode in ("hard", "soft") and self.pair_a.shape[0]:
            pa, pb = self.pair_a, self.pair_b
            k = int(np.count_nonzero(pa // w == pb // w))
            normals = partition.normals
            self._coupling = (
                pa,
                pb,
                normals,
                self.couple_a[:, None] * normals,
                self.couple_b[:, None] * normals,
                ((pa[:k], pb[:k], slice(0, k)), (pa[k:], pb[k:], slice(k, None))),
            )

    def rhs(self, next_image) -> np.ndarray:
        """Data-term right-hand side ``-(J1 - I) grad I`` on the effective labels."""
        next_image = np.asarray(next_image, dtype=np.float64)
        require_same_shape(self.image, next_image)
        return -(next_image - self.image)[..., None] * self.gradient

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        if out is None:
            out = np.empty_like(v)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        f = v.reshape(-1)
        o = out.reshape(-1)

        # data term g g^T v
        np.multiply(self.data_diag, f, out=o)
        cross = self._cross_buf
        np.multiply(self.data_cross, f[1::2], out=cross)
        o[0::2] += cross
        np.multiply(self.data_cross, f[0::2], out=cross)
        o[1::2] += cross

        # smoothing: weight * (v(i) - v(j)) at both ends of every edge
        for off, weight, buf in self._edges:
            np.subtract(f[off:], f[:-off], out=buf)
            buf *= weight
            o[:-off] -= buf
            o[off:] += buf

        # normal coupling across interface pairs
        if self._coupling is not None:
            pa, pb, normals, ca_n, cb_n, groups = self._coupling
            f2 = f.reshape(-1, 2)
            o2 = o.reshape(-1, 2)
            d = f2[pb] - f2[pa]
            dn = (d * normals).sum(axis=1)[:, None]
            add_a = dn * ca_n
            add_b = dn * cb_n
            for ga, gb, sel in groups:
                o2[ga] -= add_a[sel]
                o2[gb] += add_b[sel]
        return out


@dataclass
class CGResult:
    """Conjugate-gradient outcome: solution field and residual history."""

    solution: np.ndarray
    residuals: list
    converged: bool
    iterations: int


def solve_cg(operator, b, cfg: SolverConfig) -> CGResult:
    """Conjugate gradient on ``A v = b`` with a zero initial guess.

    ``operator(p, out=ap)`` must write ``A p`` into ``ap``, as
    :class:`MotionOperator` does.

    Stops at the first iterate whose residual norm falls below
    ``cg_rel_tol * ||b||``, or flags non-convergence after the iteration cap.
    Raises :class:`NumericalError` naming the iteration if the recurrence
    produces non-finite values.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    b_norm = float(np.sqrt(np.vdot(b, b).real))
    if b_norm == 0.0:
        return CGResult(x, [0.0], True, 0)
    if not np.isfinite(b_norm):
        raise NumericalError("non-finite right-hand side at iteration 0")

    max_iter = cfg.resolved_max_iter(b.size)
    target = cfg.cg_rel_tol * b_norm
    r = b.copy()
    p = r.copy()
    ap = np.empty_like(b)
    tmp = np.empty_like(b)
    rs = float(np.vdot(r, r).real)
    residuals = [math.sqrt(rs)]
    k = 0
    while math.sqrt(rs) > target and k < max_iter:
        operator(p, out=ap)
        pap = float(np.vdot(p, ap).real)
        if not np.isfinite(pap):
            raise NumericalError(f"non-finite operator product at iteration {k + 1}")
        if pap <= 0.0:
            # Numerically null direction of a semi-definite operator: the
            # current iterate is the best consistent answer.
            break
        step = rs / pap
        np.multiply(p, step, out=tmp)
        x += tmp
        np.multiply(ap, step, out=tmp)
        r -= tmp
        rs_new = float(np.vdot(r, r).real)
        if not np.isfinite(rs_new):
            raise NumericalError(f"non-finite residual at iteration {k + 1}")
        residuals.append(math.sqrt(rs_new))
        p *= rs_new / rs
        p += r
        rs = rs_new
        k += 1
    return CGResult(x, residuals, math.sqrt(rs) <= target, k)


@dataclass
class SolveResult:
    """Velocity solve outcome: the field on its partition and the CG record."""

    velocity: PiecewiseVelocity
    residuals: list
    converged: bool
    iterations: int


def solve_infinitesimal(
    image, next_image, partition: RegionPartition, cfg: SolverConfig
) -> SolveResult:
    """Solve one incremental velocity between ``image`` and ``next_image``.

    Composes the data-term right-hand side, the configured motion operator
    (coupling along the partition's interface normals), and the CG solve.
    """
    image = np.asarray(image, dtype=np.float64)
    next_image = np.asarray(next_image, dtype=np.float64)
    require_same_shape(image, next_image, partition.labels)
    op = MotionOperator(image, partition, cfg)
    cg = solve_cg(op, op.rhs(next_image), cfg)
    vel = PiecewiseVelocity(cg.solution, partition)
    return SolveResult(vel, cg.residuals, cg.converged, cg.iterations)


def energy(velocity: PiecewiseVelocity, image, next_image, cfg: SolverConfig) -> float:
    """Quadratic motion energy: data residual plus within-region smoothness.

    Built on the configured :class:`MotionOperator`: the data term is the
    squared linearised brightness residual on its gradient, and smoothness
    sums ``weight |v(y) - v(x)|^2 / 2`` over its right and down edges (the
    region's alpha between same-label neighbours, zero across a label cut).
    """
    op = MotionOperator(image, velocity.partition, cfg)
    next_image = np.asarray(next_image, dtype=np.float64)
    require_same_shape(op.image, next_image)
    h, w = op.shape
    v = velocity.field

    resid = next_image - op.image + (op.gradient * v).sum(axis=-1)
    total = 0.5 * float((resid**2).sum())
    right = op.weight_right.reshape(h, w, 2)[:, :-1, 0]
    dv = v[:, 1:] - v[:, :-1]
    total += 0.5 * float((right * (dv**2).sum(axis=-1)).sum())
    down = op.weight_down.reshape(h, w, 2)[:-1, :, 0]
    dv = v[1:, :] - v[:-1, :]
    total += 0.5 * float((down * (dv**2).sum(axis=-1)).sum())
    return total
