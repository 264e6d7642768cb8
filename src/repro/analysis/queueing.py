"""M/G/1 queueing approximations for response time.

For Poisson-ish arrivals at rate λ to a single server with service time
S (mean E[S], second moment E[S²]), the Pollaczek-Khinchine formula
gives the mean wait::

    W = λ E[S²] / (2 (1 - ρ)),   ρ = λ E[S]

The EEVFS data path is a tandem of such servers (server CPU, disk, NIC),
and the paper's workloads drive each at low-to-moderate utilisation, so
summing the dominant stage's wait with the total service time predicts
the mean response well -- the simulator must land near it.
"""

from __future__ import annotations


def utilization(arrival_rate_hz: float, mean_service_s: float) -> float:
    """Offered load ρ = λ E[S]."""
    if arrival_rate_hz < 0 or mean_service_s < 0:
        raise ValueError("rate and service time must be >= 0")
    return arrival_rate_hz * mean_service_s


def mg1_mean_wait_s(
    arrival_rate_hz: float,
    mean_service_s: float,
    second_moment_s2: float,
) -> float:
    """Pollaczek-Khinchine mean waiting time (raises if unstable)."""
    if second_moment_s2 < mean_service_s**2:
        raise ValueError("E[S^2] cannot be below (E[S])^2")
    rho = utilization(arrival_rate_hz, mean_service_s)
    if rho >= 1.0:
        raise ValueError(f"unstable queue: rho = {rho:.3f} >= 1")
    return arrival_rate_hz * second_moment_s2 / (2.0 * (1.0 - rho))


def mg1_mean_response_s(
    arrival_rate_hz: float,
    mean_service_s: float,
    second_moment_s2: float,
) -> float:
    """Mean response time W + E[S]."""
    return (
        mg1_mean_wait_s(arrival_rate_hz, mean_service_s, second_moment_s2)
        + mean_service_s
    )


def deterministic_second_moment(mean_service_s: float) -> float:
    """E[S²] for a deterministic service time (M/D/1)."""
    return mean_service_s**2
