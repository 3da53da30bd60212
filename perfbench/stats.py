"""Order statistics shared by run.py and the workload process."""


def tail(latencies: list) -> dict:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return {"value": xs[-1], "percentile": 100.0, "n": n, "beyond": 0}
    k = n - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "n": n, "beyond": n - 1 - k}


def median(xs: list) -> float:
    ys = sorted(xs)
    n = len(ys)
    return ys[n // 2] if n % 2 else 0.5 * (ys[n // 2 - 1] + ys[n // 2])
