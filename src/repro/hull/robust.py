"""Graceful degradation: the float -> exact -> sos -> joggle ladder.

The paper assumes general position and real arithmetic; real inputs
offer neither.  :func:`robust_hull` wraps :func:`parallel_hull` in a
four-rung ladder:

1. **float** -- the default adaptive predicates (float fast path with
   exact rational recheck inside the error envelope);
2. **exact** -- every hyperplane built in :func:`exact_mode`, so *all*
   visibility is decided rationally (slow, but immune to any float
   filter bug);
3. **sos** -- :func:`~repro.geometry.perturb.sos_mode` Simulation of
   Simplicity: exact predicates plus deterministic symbolic
   tie-breaking by insertion rank, so genuinely degenerate clouds
   (duplicates, not-full-dimensional, cocircular...) yield the
   canonical simplicial hull of the perturbed points *without touching
   the input coordinates*;
4. **joggle** -- :func:`joggled_hull`'s seeded numeric perturbation,
   the last resort (it changes the input), kept for inputs that defeat
   even symbolic perturbation and as an explicit opt-out
   (``allow_sos=False``).

Each rung is attempted, validated, **certified** (a
:class:`~repro.hull.certify.HullCertificate` checked by the independent
exact verifier -- construction bugs cannot self-approve), and on
failure the next rung is tried.  The escalation path ends up both in
the result and in the run's ``exec_stats.escalations`` so chaos reports
and experiment logs can see which inputs needed which tier.

When a :class:`~repro.geometry.noisy.NoisyKernel` is supplied
(``noise=``), *noisy* rungs run before the exact ladder: the hull is
built against the lying oracle, and the same independent certificate
decides whether the answer survived the noise.  Rejection escalates the
vote count (``k -> 2k+1 -> adaptive``, each at a fresh noise epoch so
retries draw independent errors) and finally falls through to the
noise-free ladder above -- certificate-gated self-healing.  Every
attempt lands in ``escalations`` as ``noisy[p=..,votes=..]:{ok,...}``,
with an ``#attempt`` counter distinguishing retries of the same rung.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.hyperplane import exact_mode
from ..geometry.noisy import NoisyKernel
from ..geometry.perturb import sos_mode
from .certify import CertificateError, HullCertificate, make_certificate, verify_certificate
from .common import engine_noise
from .joggle import JoggledHull, joggled_hull
from .parallel import ParallelHullRun, parallel_hull
from .validate import HullValidationError, validate_hull

__all__ = ["RobustHullResult", "robust_hull"]


@dataclass
class RobustHullResult:
    """Outcome of :func:`robust_hull`.

    ``mode`` is the rung that succeeded (``"float"``, ``"exact"``,
    ``"sos"`` or ``"joggle"``); ``run`` the surviving hull run (over
    joggled coordinates when ``mode == "joggle"``, in which case
    ``joggled`` carries the perturbation provenance).  ``escalations``
    is the full path, e.g. ``["float:HullSetupError",
    "exact:HullSetupError", "sos:ok"]``, normalized to one
    ``rung:outcome`` entry per attempt -- a re-attempt of a rung already
    on the path gets an attempt counter (``"rung#2:outcome"``), so the
    path is injective and counting attempts per rung is exact.  With
    noise, ``mode`` is the noisy rung label (``"noisy[p=..,votes=..]"``)
    and ``noise`` the :class:`NoisyKernel` that produced the surviving
    run (its counters hold the vote-overhead numbers).  ``certificate``
    is the independently verified :class:`HullCertificate` of the
    surviving run (None only when ``certify=False``).
    """

    run: ParallelHullRun
    mode: str
    escalations: list[str] = field(default_factory=list)
    joggled: JoggledHull | None = None
    certificate: HullCertificate | None = None
    noise: NoisyKernel | None = None

    def vertex_indices(self) -> set[int]:
        return self.run.vertex_indices()


def robust_hull(
    points: np.ndarray,
    seed: int | None = 0,
    order: np.ndarray | None = None,
    allow_joggle: bool = True,
    allow_sos: bool = True,
    validate: bool = True,
    certify: bool = True,
    noise: NoisyKernel | None = None,
    noise_retries: int = 1,
    **hull_kwargs,
) -> RobustHullResult:
    """Compute a hull of ``points``, escalating through the predicate
    ladder on failure.

    ``validate=True`` (default) runs :func:`validate_hull` after every
    rung, so a structurally broken hull escalates instead of being
    returned; ``certify=True`` (default) additionally emits a
    certificate and checks it with the independent exact verifier
    (recorded as ``"mode:CertificateError"`` when it fails).
    ``allow_sos=False`` skips symbolic perturbation; with both
    ``allow_sos=False`` and ``allow_joggle=False`` the exact rung's
    failure is re-raised (callers that need the *true* face lattice of
    degenerate points should use
    :func:`~repro.geometry.perturb.merge_coplanar_facets` on an SoS run
    instead).  Extra keyword arguments are forwarded to
    :func:`parallel_hull` -- in particular ``engine="soa"`` runs every
    rung (noisy, float, exact, sos) on the round-vectorized
    conflict-list engine; the ladder semantics are unchanged because
    the SoA engine raises, validates, and certifies exactly as the
    object driver does.

    ``noise`` prepends noisy rungs: the hull runs against the given
    :class:`NoisyKernel` (``noise_retries`` attempts per vote level,
    each at a fresh epoch), the certificate gate decides acceptance,
    and rejection climbs ``noise.escalation_levels()`` before falling
    through to the exact ladder.  Noisy attempts may fail *arbitrarily*
    -- a lying oracle can corrupt structural invariants deep inside the
    run, not just the checked properties -- so any exception escalates
    (recorded by type), whereas the noise-free rungs keep their strict
    catch list so genuine bugs still surface.
    """
    points = np.asarray(points, dtype=np.float64)
    # A bad engine/kernel pair is a caller error: check it here, before
    # the ladder could mistake its ValueError for a degenerate input.
    engine_noise(hull_kwargs.get("engine", "objects"), hull_kwargs.get("kernel"))
    escalations: list[str] = []
    rung_attempts: dict[str, int] = {}

    def record(rung: str, outcome: str) -> None:
        # One entry per attempt; repeat attempts of a rung get "#k"
        # (first keeps the bare label, so single-pass paths -- every
        # pre-noise caller -- read exactly as before).
        k = rung_attempts.get(rung, 0) + 1
        rung_attempts[rung] = k
        tag = rung if k == 1 else f"{rung}#{k}"
        escalations.append(f"{tag}:{outcome}")

    def attempt(
        mode: str, kernel_override: NoisyKernel | None = None
    ) -> tuple[ParallelHullRun, HullCertificate | None]:
        kwargs = dict(hull_kwargs)
        if kernel_override is not None:
            kwargs["kernel"] = kernel_override
        run = parallel_hull(points, seed=seed, order=order, **kwargs)
        if validate:
            validate_hull(run.facets, run.points)
        cert = None
        if certify:
            cert = make_certificate(run, mode)
            verify_certificate(cert, points)
        return run, cert

    if noise is not None:
        if noise_retries < 1:
            raise ValueError(f"noise_retries must be >= 1, got {noise_retries}")
        epoch = noise.epoch
        for level in noise.escalation_levels():
            for _ in range(noise_retries):
                nk = noise.spawn(votes=level, epoch=epoch)
                epoch += 1
                label = nk.rung_label()
                try:
                    run, cert = attempt(label, kernel_override=nk)
                except Exception as exc:
                    record(label, type(exc).__name__)
                    continue
                record(label, "ok")
                run.exec_stats.escalations = (
                    run.exec_stats.escalations + list(escalations)
                )
                return RobustHullResult(
                    run=run, mode=label, escalations=escalations,
                    certificate=cert, noise=nk,
                )

    rungs = ["float", "exact"] + (["sos"] if allow_sos else [])
    last_error: Exception | None = None
    for mode in rungs:
        try:
            if mode == "exact":
                with exact_mode():
                    run, cert = attempt(mode)
            elif mode == "sos":
                with sos_mode():
                    run, cert = attempt(mode)
            else:
                run, cert = attempt(mode)
        except (ValueError, HullValidationError, CertificateError) as exc:
            # ValueError covers HullSetupError (its subclass) and the
            # geometry layer's "orientation reference lies on the
            # hyperplane" -- a genuinely degenerate reference that only
            # the SoS rung can break.
            record(mode, type(exc).__name__)
            last_error = exc
            continue
        record(mode, "ok")
        # Merge, don't overwrite: the run may already carry executor-
        # ladder escalations (process->thread->serial degradation from
        # the supervised ProcessExecutor loop).
        run.exec_stats.escalations = run.exec_stats.escalations + list(escalations)
        return RobustHullResult(
            run=run, mode=mode, escalations=escalations, certificate=cert
        )

    if not allow_joggle:
        raise last_error
    jh = joggled_hull(points, seed=0 if seed is None else seed, order=order)
    cert = None
    if certify:
        # The certificate speaks about the *joggled* coordinates (that
        # is the cloud the hull is a hull of); reconstruct them in the
        # caller's index order from the run's rank-ordered points.
        joggled_points = np.empty_like(jh.run.points)
        joggled_points[jh.run.order] = jh.run.points
        cert = make_certificate(jh.run, "joggle")
        try:
            verify_certificate(cert, joggled_points)
        except CertificateError:
            record("joggle", "CertificateError")
            raise
    record("joggle", f"ok[attempts={jh.attempts}]")
    jh.run.exec_stats.escalations = jh.run.exec_stats.escalations + list(escalations)
    return RobustHullResult(
        run=jh.run, mode="joggle", escalations=escalations, joggled=jh,
        certificate=cert,
    )
