"""The analytic latency model used inside the optimizer.

Shared servers see a superposition of task request streams.  The optimizer
cannot afford a simulation per candidate solution, so congestion enters the
objective through classical single-queue formulas; experiment E14 validates
them against the discrete-event simulator.

The queueing functions return *waiting* time (time in queue, excluding
service) unless named ``*_response``.  Inputs use rates in req/s and times in
seconds.  An offered load at or above capacity returns ``inf`` — the
optimizer treats such solutions as infeasible rather than raising, because
they legitimately arise mid-search.

:func:`plan_latency` is the one latency kernel of the library: candidate
ranking (:meth:`repro.core.candidates.CandidateSet.latencies`), solution
pricing (:func:`repro.core.allocation.solution_latencies` and its trial-move
entry :func:`~repro.core.allocation.solution_latency_task`) and threshold
refinement (:func:`repro.core.surgery.refine_thresholds`) all call it, so a
plan is scored by the same float expression whichever of them asks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.risk import stage_std, wait_std
from repro.errors import ConfigError, PlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import PlanFeatures
    from repro.core.risk import RiskConfig
    from repro.devices.device import DeviceSpec
    from repro.devices.latency import LatencyModel
    from repro.network.link import Link


def utilization(arrival_rate: float, service_time: float) -> float:
    """Offered load rho = lambda * E[S]."""
    if arrival_rate < 0 or service_time < 0:
        raise ConfigError("arrival rate and service time must be non-negative")
    return arrival_rate * service_time


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean waiting time ``rho / (mu - lambda)``; inf if overloaded."""
    if arrival_rate < 0 or service_rate <= 0:
        raise ConfigError("need arrival_rate >= 0 and service_rate > 0")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        return float("inf")
    return rho / (service_rate - arrival_rate)


def mm1_response(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean response (sojourn) time ``1 / (mu - lambda)``."""
    if arrival_rate < 0 or service_rate <= 0:
        raise ConfigError("need arrival_rate >= 0 and service_rate > 0")
    if arrival_rate >= service_rate:
        return float("inf")
    return 1.0 / (service_rate - arrival_rate)


def pk_wait(arrival_rate, mean_service, second_moment) -> np.ndarray:
    """Pollaczek-Khinchine mean wait ``λ·E[S²] / (2(1 − ρ))``, elementwise.

    The one P-K expression of the library: ``inf`` at ``ρ ≥ 1``, 0 at
    ``λ = 0``, no validation (overload legitimately arises mid-search).
    Inputs broadcast; ``second_moment`` is E[S²], not the variance.
    """
    lam = np.asarray(arrival_rate, dtype=float)
    rho = lam * mean_service
    num = lam * second_moment
    den = 2.0 * (1.0 - rho)
    # divide the stable entries only: the rest stay inf, with no 1/0 warning
    w = np.divide(num, den, out=np.full(np.broadcast(num, den).shape, np.inf), where=rho < 1.0)
    return np.where(lam == 0.0, 0.0, w)


def mg1_wait(arrival_rate: float, mean_service: float, second_moment: float) -> float:
    """Validated scalar :func:`pk_wait`.

    Multi-exit service times are strongly bimodal (early exit vs. full
    depth), which is exactly the case where M/G/1 beats M/M/1 — and why the
    library carries E[S^2] around.
    """
    if arrival_rate < 0 or mean_service < 0 or second_moment < 0:
        raise ConfigError("queueing inputs must be non-negative")
    if second_moment < mean_service**2 * (1.0 - 1e-9):
        raise ConfigError(
            f"E[S^2]={second_moment} < E[S]^2={mean_service ** 2}: impossible moments"
        )
    second_moment = max(second_moment, mean_service**2)
    return float(pk_wait(arrival_rate, mean_service, second_moment))


def aggregate_server_load(
    arrival_rates: np.ndarray, service_times: np.ndarray
) -> float:
    """Total utilization of a server serving several task streams."""
    lam = np.asarray(arrival_rates, dtype=float)
    es = np.asarray(service_times, dtype=float)
    if np.any(lam < 0) or np.any(es < 0):
        raise ConfigError("negative rates or service times")
    return float(np.dot(lam, es))


def superposed_mg1_wait(
    arrival_rates: np.ndarray, mean_services: np.ndarray, second_moments: np.ndarray
) -> float:
    """Mean wait at a FIFO server fed by independent Poisson task streams.

    The superposition of independent Poisson processes is Poisson with rate
    ``sum(lam_i)`` and service moments given by the rate-weighted mixture, so
    P-K applies directly.
    """
    lam = np.asarray(arrival_rates, dtype=float)
    if lam.sum() == 0:
        return 0.0
    es = float(np.dot(lam, mean_services) / lam.sum())
    es2 = float(np.dot(lam, second_moments) / lam.sum())
    return mg1_wait(float(lam.sum()), es, es2)


# -- the latency kernel ----------------------------------------------------------

#: Surrogate latency (seconds per unit of bottleneck utilization) charged to
#: queue-unstable rows in ``overload="penalty"`` mode instead of ``inf``.  It
#: dwarfs any real latency, so penalized plans never beat stable ones, while
#: still ordering overloaded plans by how overloaded they are: when no stable
#: plan exists the optimizer degrades gracefully (sheds the most load) rather
#: than choosing arbitrarily among equally-infinite options.
OVERLOAD_PENALTY_S = 1e4

#: Accepted ``overload`` modes of :func:`plan_latency`.
OVERLOAD_MODES = ("inf", "penalty")


class FeatureColumns(NamedTuple):
    """The plan-feature columns :func:`plan_latency` reads, one row per plan.

    A :class:`~repro.core.candidates.CandidateSet` carries the same
    attributes and is passed to the kernel as is; :meth:`of` gathers the
    columns of an arbitrary list of plans (the chosen plans of a solution,
    a threshold-refinement grid).
    """

    dev_flops: np.ndarray
    srv_flops: np.ndarray
    wire_bytes: np.ndarray
    p_offload: np.ndarray
    dev_flops_sq: np.ndarray
    srv_flops_sq: np.ndarray
    wire_bytes_sq: np.ndarray

    @classmethod
    def of(cls, features: Sequence["PlanFeatures"]) -> "FeatureColumns":
        rows = list(map(attrgetter(*cls._fields), features))
        return cls(*np.array(rows, dtype=float).reshape(-1, len(cls._fields)).T.copy())


def _sq(v):
    # stage parameters square through libm pow — what ``x**2`` does on a
    # Python float — whether they arrive as scalars or as per-row arrays
    # (NumPy's ``**2`` on an array multiplies, which can differ in the last
    # bit), so a gathered per-row call reproduces a scalar call exactly
    return v**2 if isinstance(v, float) else np.float_power(v, 2.0)


def _per_offload(x, p, offloads):
    # x / p on offloading rows, 0 elsewhere: a stage's demand conditioned on
    # the request offloading.  Rows that never offload keep finite moments;
    # their thinned rate λ·p is 0, so they add no wait and no utilization.
    return np.divide(x, p, out=np.zeros(x.shape), where=offloads)


def plan_latency(
    cols,
    r_dev,
    oh_dev,
    r_srv=None,
    oh_srv=0.0,
    bw=None,
    rtt=0.0,
    local: Optional[np.ndarray] = None,
    arrival_rate=None,
    risk: Optional["RiskConfig"] = None,
    overload: str = "inf",
) -> np.ndarray:
    """Predicted latency of every row of ``cols`` — the one latency model.

    ``cols`` holds the plan-feature columns (:class:`FeatureColumns` or a
    :class:`~repro.core.candidates.CandidateSet`).  Stage parameters are
    scalars or per-row arrays: device throughput ``r_dev`` (FLOP/s) and
    dispatch overhead ``oh_dev``; server throughput at the granted share
    ``r_srv`` and its overhead ``oh_srv``; link bandwidth at the granted
    share ``bw`` and ``rtt``.  ``r_srv=None`` places every row locally;
    otherwise ``local`` may mark the rows placed locally (their server
    parameters must be finite and positive, and are ignored).  A locally
    placed plan that needs the server is ``inf`` in every mode.

    The mean is ``t_dev + (srv/r_srv + p·(rtt + oh_srv) + wire/bw)`` plus,
    when ``arrival_rate`` is given, the per-stage M/G/1 waits of the device
    → link → server tandem: the device stage sees every request, link and
    server the thinned stream ``λ·p_offload`` with demand moments
    conditioned on offloading.  A stage at utilization ≥ 1 makes the wait
    ``inf`` (``overload="inf"``) or ``OVERLOAD_PENALTY_S`` × the bottleneck
    utilization (``overload="penalty"``).  An active ``risk`` config adds
    ``κ(ε)·σ``, where σ is the sub-additive per-stage std bound of
    :mod:`repro.core.risk`, stage for stage over the same terms.  The float
    operations run in exactly this order for every caller.
    """
    dev, srv, wire, p = cols.dev_flops, cols.srv_flops, cols.wire_bytes, cols.p_offload
    offload = r_srv is not None
    offloads = p > 0
    # the device segment (and its dispatch overhead) only runs if the plan
    # actually executes work locally
    oh_d = np.where(dev > 0, oh_dev, 0.0)
    t_dev = dev / r_dev + oh_d
    out = t_dev + (srv / r_srv + p * (rtt + oh_srv) + wire / bw) if offload else t_dev
    lam = arrival_rate
    if lam is not None:
        s2 = cols.dev_flops_sq / _sq(r_dev) + 2 * oh_d * dev / r_dev + oh_d**2
        wait = np.where(t_dev > 0, pk_wait(lam, t_dev, np.maximum(s2, t_dev * t_dev)), 0.0)
        rho_max = lam * t_dev
        if offload:
            lam_off = lam * p
            srv_p = _per_offload(srv, p, offloads)
            m1 = srv_p / r_srv + oh_srv
            m2 = (
                _per_offload(cols.srv_flops_sq, p, offloads) / _sq(r_srv)
                + 2 * oh_srv * srv_p / r_srv
                + _sq(oh_srv)
            )
            l1 = _per_offload(wire, p, offloads) / bw
            l2 = _per_offload(cols.wire_bytes_sq, p, offloads) / _sq(bw)
            w_srv = pk_wait(lam_off, m1, np.maximum(m2, m1 * m1))
            w_link = pk_wait(lam_off, l1, np.maximum(l2, l1 * l1))
            wait = wait + p * (w_srv + w_link)
            rho_max = np.maximum(rho_max, np.maximum(lam_off * m1, lam_off * l1))
        penalty = OVERLOAD_PENALTY_S * rho_max if overload == "penalty" else np.inf
        out = out + np.where(np.isfinite(wait), wait, penalty)
    if risk is not None and risk.active:
        rv = risk.rel_var
        w_dev = dev / r_dev
        w2_dev = cols.dev_flops_sq / _sq(r_dev)
        sigma = stage_std(w_dev, w2_dev, oh_d, 1.0, rv)
        # the σ waits take their service moments in work-time form (w/p):
        # the same model as the mean waits, in the buffered ranking's order
        if lam is not None:
            s2 = w2_dev + 2 * oh_d * w_dev + oh_d**2
            dev_wait = np.where(
                t_dev > 0, pk_wait(lam, t_dev, np.maximum(s2, t_dev * t_dev)), 0.0
            )
            sigma = sigma + wait_std(dev_wait, t_dev)
        if offload:
            w_srv = srv / r_srv
            w_wire = wire / bw
            sigma = (
                sigma
                + stage_std(w_srv, cols.srv_flops_sq / _sq(r_srv), oh_srv, p, rv)
                + stage_std(w_wire, cols.wire_bytes_sq / _sq(bw), 0.0, p, rv)
                + stage_std(0.0, 0.0, rtt, p, 0.0)
            )
            if lam is not None:
                m1 = _per_offload(w_srv, p, offloads) + oh_srv
                m2 = (
                    _per_offload(cols.srv_flops_sq, p, offloads) / _sq(r_srv)
                    + 2 * oh_srv * _per_offload(w_srv, p, offloads)
                    + _sq(oh_srv)
                )
                l1 = _per_offload(w_wire, p, offloads)
                l2 = _per_offload(cols.wire_bytes_sq, p, offloads) / _sq(bw)
                srv_wait = pk_wait(lam * p, m1, np.maximum(m2, m1 * m1))
                link_wait = pk_wait(lam * p, l1, np.maximum(l2, l1 * l1))
                sigma = sigma + wait_std(srv_wait, m1, p) + wait_std(link_wait, l1, p)
        out = out + risk.kappa * sigma
    if not offload or local is not None:
        needs_server = offloads | (srv > 0)
        out = np.where(needs_server if not offload else local & needs_server, np.inf, out)
    return out


def stage_params(
    device: "DeviceSpec",
    latency_model: "LatencyModel",
    server: Optional["DeviceSpec"] = None,
    link: Optional["Link"] = None,
    compute_share: float = 1.0,
    bandwidth_share: float = 1.0,
) -> Dict[str, float]:
    """:func:`plan_latency` stage parameters of one placement, validated.

    ``server=None, link=None`` is local execution.  Raises
    :class:`~repro.errors.PlanError` for a server without a link (or vice
    versa) and for a share outside (0, 1].
    """
    params = {"r_dev": latency_model.throughput(device), "oh_dev": device.overhead_s}
    if server is None and link is None:
        return params
    if server is None or link is None:
        raise PlanError("offloading needs both a server and a link")
    if not (0.0 < compute_share <= 1.0 + 1e-12):
        raise PlanError(f"compute share must be in (0,1], got {compute_share}")
    if not (0.0 < bandwidth_share <= 1.0 + 1e-12):
        raise PlanError(f"bandwidth share must be in (0,1], got {bandwidth_share}")
    params.update(
        r_srv=latency_model.throughput(server) * compute_share,
        oh_srv=server.overhead_s,
        bw=link.bandwidth_bps * bandwidth_share,
        rtt=link.rtt_s,
    )
    return params
