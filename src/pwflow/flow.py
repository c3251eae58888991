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
are applied matrix-free; the system is solved by plain conjugate gradient
from a zero initial guess, which on singular-but-consistent systems returns
the minimum-norm solution.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError, GridShapeError, NumericalError
from .grid import (
    RegionPartition,
    gradient_region_aware,
    normals_from_levelset,
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
    "apply_operator",
    "assemble_rhs",
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
    """Matrix-free application of the piecewise motion operator.

    Per pixel the operator evaluates the negated within-region graph
    Laplacian weighted by the region's alpha, the cross-interface normal
    coupling term for the configured mode, and the image-gradient data term
    ``g g^T v``.  Geometry, weights, and gradients are precomputed once so
    repeated applications inside CG stay cheap.
    """

    def __init__(self, image, partition: RegionPartition, cfg: SolverConfig, psi=None):
        image = np.asarray(image, dtype=np.float64)
        require_same_shape(image, partition.labels)
        self.cfg = cfg
        self.partition = partition
        self.shape = image.shape
        h, w = image.shape

        self.labels_eff, self.alpha_map, self._alpha_a, self._alpha_b = (
            _region_alphas(partition, cfg)
        )
        self.gradient = gradient_region_aware(image, self.labels_eff)

        # full 4-neighbour degree; cross-label pairs are corrected per pair
        deg = np.full((h, w), 4.0)
        deg[0, :] -= 1.0
        deg[-1, :] -= 1.0
        deg[:, 0] -= 1.0
        deg[:, -1] -= 1.0
        self._weighted_degree = self.alpha_map * deg

        self.pair_a = partition.pair_a
        self.pair_b = partition.pair_b
        if cfg.mode == "global":
            # one region: no pair corrections at all
            self.pair_a = np.zeros(0, dtype=np.int64)
            self.pair_b = np.zeros(0, dtype=np.int64)
        if psi is not None and cfg.mode in ("hard", "soft"):
            self.pair_normals = normals_from_levelset(psi, partition.pairs)
        else:
            self.pair_normals = partition.normals
        if self.pair_a.shape[0]:
            if cfg.mode in ("hard", "soft"):
                if cfg.mode == "soft":
                    _check_soft_denominator(cfg.beta, self._alpha_a, self._alpha_b)
                c_ext, d_ext = _ghost_coefficients(
                    cfg.mode, self._alpha_a, self._alpha_b, cfg.beta
                )
                self.couple_a = self._alpha_a * c_ext
                self.couple_b = self._alpha_b * d_ext
            else:
                self.couple_a = np.zeros_like(self._alpha_a)
                self.couple_b = np.zeros_like(self._alpha_b)

        # scratch buffers reused across CG applications
        self._nbr_buf = np.empty((h, w, 2), dtype=np.float64)
        self._data_buf = np.empty((h, w), dtype=np.float64)

    @property
    def pair_touch_count(self) -> int:
        """Number of neighbour-pair stencil terms one application evaluates."""
        h, w = self.shape
        return h * (w - 1) + (h - 1) * w

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        h, w = self.shape
        v = np.asarray(v, dtype=np.float64)
        if out is None:
            out = np.empty_like(v)

        np.multiply(self._weighted_degree[..., None], v, out=out)
        buf = self._nbr_buf
        buf.fill(0.0)
        buf[:, :-1] += v[:, 1:]
        buf[:, 1:] += v[:, :-1]
        buf[:-1, :] += v[1:, :]
        buf[1:, :] += v[:-1, :]
        buf *= self.alpha_map[..., None]
        out -= buf

        if self.pair_a.shape[0]:
            flat = v.reshape(-1, 2)
            d = flat[self.pair_b] - flat[self.pair_a]
            # undo the uniform Laplacian across the pair, then add the
            # normal-coupling term eliminated from the interface condition
            dn = (d * self.pair_normals).sum(axis=1)
            adj_a = self._alpha_a[:, None] * d
            adj_b = self._alpha_b[:, None] * d
            adj_a -= (self.couple_a * dn)[:, None] * self.pair_normals
            adj_b -= (self.couple_b * dn)[:, None] * self.pair_normals
            out_flat = out.reshape(-1, 2)
            size = h * w
            for comp in (0, 1):
                out_flat[:, comp] += np.bincount(
                    self.pair_a, weights=adj_a[:, comp], minlength=size
                )
                out_flat[:, comp] -= np.bincount(
                    self.pair_b, weights=adj_b[:, comp], minlength=size
                )

        g = self.gradient
        tmp = self._data_buf
        np.multiply(g[..., 0], v[..., 0], out=tmp)
        tmp += g[..., 1] * v[..., 1]
        out[..., 0] += g[..., 0] * tmp
        out[..., 1] += g[..., 1] * tmp
        return out


def apply_operator(velocity: PiecewiseVelocity, image, cfg: SolverConfig, psi=None):
    """One application of the configured motion operator to a velocity."""
    op = MotionOperator(image, velocity.partition, cfg, psi=psi)
    return op(velocity.field)


def assemble_rhs(image, next_image, partition: RegionPartition) -> np.ndarray:
    """Data-term right-hand side ``-(J1 - I) grad I`` (region-aware gradient)."""
    image = np.asarray(image, dtype=np.float64)
    next_image = np.asarray(next_image, dtype=np.float64)
    require_same_shape(image, next_image, partition.labels)
    g = gradient_region_aware(image, partition.labels)
    return -(next_image - image)[..., None] * g


@dataclass
class CGResult:
    """Conjugate-gradient outcome: solution field and residual history."""

    solution: np.ndarray
    residuals: list
    converged: bool
    iterations: int


def solve_cg(operator, b, cfg: SolverConfig) -> CGResult:
    """Conjugate gradient on ``A v = b`` with a zero initial guess.

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
    supports_out = isinstance(operator, MotionOperator)
    rs = float(np.vdot(r, r).real)
    residuals = [math.sqrt(rs)]
    k = 0
    while math.sqrt(rs) > target and k < max_iter:
        if supports_out:
            operator(p, out=ap)
        else:
            ap = operator(p)
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
    """Velocity solve outcome plus the operator used to produce it."""

    velocity: PiecewiseVelocity
    residuals: list
    converged: bool
    iterations: int
    operator: MotionOperator = dataclass_field(repr=False, default=None)


def solve_infinitesimal(
    image, next_image, partition: RegionPartition, psi, cfg: SolverConfig
) -> SolveResult:
    """Solve one incremental velocity between ``image`` and ``next_image``.

    Composes interface normals from the level set, the data-term right-hand
    side, the configured motion operator, and the CG solve.
    """
    image = np.asarray(image, dtype=np.float64)
    next_image = np.asarray(next_image, dtype=np.float64)
    require_same_shape(image, next_image, partition.labels)
    op = MotionOperator(image, partition, cfg, psi=psi)
    b = -(next_image - image)[..., None] * op.gradient
    cg = solve_cg(op, b, cfg)
    vel = PiecewiseVelocity(cg.solution, partition)
    return SolveResult(vel, cg.residuals, cg.converged, cg.iterations, op)


def energy(velocity: PiecewiseVelocity, image, next_image, cfg: SolverConfig) -> float:
    """Quadratic motion energy: data residual plus within-region smoothness.

    Smoothness sums ``alpha |v(y) - v(x)|^2 / 2`` over unordered same-label
    neighbour pairs (all pairs with weight ``alpha_in`` in global mode), and
    the data term is the squared linearised brightness residual.
    """
    image = np.asarray(image, dtype=np.float64)
    next_image = np.asarray(next_image, dtype=np.float64)
    part = velocity.partition
    require_same_shape(image, next_image, part.labels)
    v = velocity.field

    labels_eff, alpha_map, _, _ = _region_alphas(part, cfg)
    g = gradient_region_aware(image, labels_eff)
    resid = next_image - image + (g * v).sum(axis=-1)
    total = 0.5 * float((resid**2).sum())

    same_r = labels_eff[:, :-1] == labels_eff[:, 1:]
    dv = v[:, 1:] - v[:, :-1]
    total += 0.5 * float(
        (alpha_map[:, :-1][same_r] * (dv[same_r] ** 2).sum(axis=-1)).sum()
    )
    same_d = labels_eff[:-1, :] == labels_eff[1:, :]
    dv = v[1:, :] - v[:-1, :]
    total += 0.5 * float(
        (alpha_map[:-1, :][same_d] * (dv[same_d] ** 2).sum(axis=-1)).sum()
    )
    return total
