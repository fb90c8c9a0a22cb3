"""Closed-form local (co)homology of a complete intersection, and the cell check.

For M = R/(f_1..f_c) with f a regular sequence in k[x_1..x_n], deg x_i = w_i,

    HS_M(t) = prod_j (1 - t^deg f_j) / prod_i (1 - t^w_i),

and with respect to the maximal ideal

    dim H^{n-c}_m(M)_d = HF_M(sum deg f_j - sum w_i - d),  H^i_m(M) = 0 otherwise;
    dim H^m_0(M)_d = HF_M(d),                                H^m_i(M) = 0 otherwise.

Nothing here uses engine code.
"""

from __future__ import annotations

from typing import NamedTuple


def hilbert_function(weights, degrees, up_to: int) -> list:
    """HF_M(0..up_to) from the series above."""
    series = [0] * (up_to + 1)
    series[0] = 1
    for e in degrees:  # multiply by (1 - t^e)
        for d in range(up_to, e - 1, -1):
            series[d] -= series[d - e]
    for w in weights:  # divide by (1 - t^w)
        for d in range(w, up_to + 1):
            series[d] += series[d - w]
    return series


def expected_dim(command: str, weights, degrees, i: int, d: int) -> int:
    """True dim of the (i, d) cell of an ``lc`` or ``lh`` table at the maximal ideal."""
    n, c = len(weights), len(degrees)
    if command == "lc":
        if i != n - c:
            return 0
        t = sum(degrees) - sum(weights) - d
    elif command == "lh":
        if i != 0:
            return 0
        t = d
    else:
        raise ValueError(f"no closed form for {command!r}")
    return hilbert_function(weights, degrees, t)[t] if t >= 0 else 0


class CellCheck(NamedTuple):
    cells: int
    unstabilized: int
    failed: tuple  # (i, d, reported dim, expected dim) of each failed cell
    known: tuple = ()  # the failed cells that match a known engine defect


def is_known_false_stable(shape, rec, want) -> bool:
    """True for a cell of ``shape.known_false_stable`` failing the known way.

    The engine's truncated colimit counts the 0x0 transitions at the start of
    a tower as isomorphisms, so such a cell comes out dim 0, stabilized at
    k_used 1, where the closed form is positive.  Any other wrong value, even
    in a listed cell, is not this defect.
    """
    return (
        (rec["i"], rec["d"]) in shape.known_false_stable
        and rec["dim"] == 0
        and rec["stabilized"]
        and rec.get("k_used") == 1
        and want > 0
    )


def check_table(shape, records) -> CellCheck:
    """Compare report rows of a ``workloads.TableShape`` job with the closed form.

    A stabilized row whose dim differs is a failed cell, and so is a missing
    or repeated row.  An unstabilized row is an honest truncation: it is
    counted, never failed.  Failed cells that match the shape's known engine
    defect (``is_known_false_stable``) stay failed and are also listed in
    ``known``.
    """
    (i_lo, i_hi), (d_lo, d_hi) = shape.i_range, shape.window
    grid = [(i, d) for i in range(i_lo, i_hi + 1) for d in range(d_lo, d_hi + 1)]
    rows = {}
    failed = []
    for rec in records:
        key = (rec["i"], rec["d"])
        if key in rows or key not in grid:
            failed.append(key + (rec["dim"], None))
        rows[key] = rec
    unstabilized = 0
    known = []
    for i, d in grid:
        want = expected_dim(shape.command, shape.weights, shape.degrees, i, d)
        rec = rows.get((i, d))
        if rec is None:
            failed.append((i, d, None, want))
        elif not rec["stabilized"]:
            unstabilized += 1
        elif rec["dim"] != want:
            failed.append((i, d, rec["dim"], want))
            if is_known_false_stable(shape, rec, want):
                known.append(failed[-1])
    return CellCheck(len(grid), unstabilized, tuple(failed), tuple(known))
