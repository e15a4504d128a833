"""Signature enumeration, [[n,k,d]] tables, and the genus-equivalence check.

Assembles per-genus tables of code parameters over every admissible
tessellation signature, serialises them as CSV/JSON, and verifies that the
orientable surface of genus h and the non-orientable surface of genus 2h
(equal Euler characteristic) carry identical codes.
"""

from __future__ import annotations

from typing import Iterable

from .derive import _admitted_vertex_count
from .floquet import CodeParams, code_params
from .hypgeo import _check_genus, systole

CSV_HEADER = (
    "genus", "orientable", "signature", "n", "k", "d", "d_source",
    "k_n", "kd2_n", "d_n",
)


def default_m_max(chi: int) -> int:
    """Largest face size any admissible triple can carry at this chi.

    Let m be a triple's largest size.  Held by one position, it needs
    m | n under either rule, so n >= m; the loosest even triple is then
    (4, 6, m), giving n = 12|chi|*m/(m-12), and n >= m forces
    m <= 12|chi| + 12.  Held by two or three positions, it comes from
    (a, m, m) or (m, m, m), which need 2n >= m or 3n >= m under the size
    rule and so cap m at 8|chi| + 8 and 6|chi| + 6.
    """
    if chi >= 0:
        raise ValueError("hyperbolic surfaces have negative Euler characteristic")
    return 12 * abs(chi) + 12


def enumerate_signatures(
    genus: int, orientable: bool, m_max: int | None = None
) -> tuple[tuple[int, int, int], ...]:
    """All admissible [m1,m2,m3] at this genus, lexicographically sorted.

    Odd face sizes are pre-excluded: a face's boundary edges alternate
    between the two colours it does not carry, which is impossible around
    an odd cycle, so no odd entry can ever sit in a three-colorable
    tri-valent tiling.  Admissibility is then decided in exact integers:
    with den = m1 m2 m3 - 2(m1 m2 + m2 m3 + m1 m3), the triple must be
    hyperbolic (den > 0), n_v = 2|chi| m1 m2 m3 / den a positive even
    integer, and the face counts integral per position (orientable) or
    per size class (non-orientable).

    Loops run over m1 <= m2 <= m3, so the output is generated in order.
    The m3 loop is bounded: every admitted triple has reach * n_v >= m3,
    since m3 | n_v under the position rule (reach 1) and at most three
    positions share m3's size under the size rule (reach 3).  Writing
    c = m1 m2 - 2(m1 + m2), that bound is m3 * c <= (2 reach |chi| + 2) m1 m2.
    Pairs with c <= 0 are never hyperbolic and are skipped.  The bound
    falls as m2 grows, so once it drops below m2 no larger m2 can admit a
    triple either.  Since den = c m3 - 2 m1 m2, most m3 fail already on
    den > 0 and the integrality of n_v = 2|chi| m1 m2 m3 / den, tested
    inline; the few that pass go through ``_admitted_vertex_count``, the
    one admission rule.
    """
    chi = _check_genus(genus, orientable)
    if m_max is None:
        m_max = default_m_max(chi)
    if m_max < 4:
        raise ValueError(f"m_max must be at least 4, got {m_max}")
    reach = 1 if orientable else 3
    scale = 2 * reach * abs(chi) + 2
    out = []
    for m1 in range(4, m_max + 1, 2):
        for m2 in range(m1, m_max + 1, 2):
            c = m1 * m2 - 2 * (m1 + m2)
            if c <= 0:
                continue
            top = min(m_max, scale * m1 * m2 // c)
            if top < m2:
                break
            pair = 2 * m1 * m2
            num = abs(chi) * pair
            for m3 in range(m2, top + 1, 2):
                den = c * m3 - pair
                if (
                    den > 0
                    and num * m3 % den == 0
                    and _admitted_vertex_count((m1, m2, m3), chi, orientable) is not None
                ):
                    out.append((m1, m2, m3))
    return tuple(out)


def build_table(
    genera: int | Iterable[int], orientable: bool, d_mode: str = "auto"
) -> tuple[CodeParams, ...]:
    """One row per admissible signature per genus, deterministic order.

    ``d_mode`` is that of ``code_params``: "auto" (exact distance on
    incenter rows with n <= 40, the estimate elsewhere) or "geo" (the
    estimate on every row).
    """
    if isinstance(genera, int):
        genera = (genera,)
    rows = []
    for g in sorted(set(genera)):
        for m in enumerate_signatures(g, orientable):
            rows.append(code_params(m, g, orientable, d_mode))
    return tuple(rows)


def table_to_csv(rows: Iterable[CodeParams]) -> str:
    """The rows as CSV under ``CSV_HEADER``, each line ending in a newline.

    Each line is formatted directly from the record's fields, unpacked in
    order (faster than named reads of a tuple record).  The signature
    "[m1,m2,m3]" is the only field that can hold a comma, and no field
    holds a quote or a line break, so it is the only field quoted: the
    minimal quoting of ``csv.writer``.  The ratios k/n, k d^2/n and d/n
    are written with ``:.12g``.
    """
    lines = [",".join(CSV_HEADER)]
    for signature, genus, orientable, n, k, d, d_source, _ in rows:
        lines.append(
            f'{genus},{"true" if orientable else "false"},'
            f'"[{",".join(map(str, signature))}]",{n},{k},{d},{d_source},'
            f"{k / n:.12g},{k * d * d / n:.12g},{d / n:.12g}"
        )
    lines.append("")
    return "\n".join(lines)


def equivalence_check(h: int) -> dict:
    """Codes at orientable genus h equal those at non-orientable genus 2h.

    Both surfaces share chi = 2 - 2h, hence the same counts and the same
    logical count; the even-genus non-orientable systole collapses to the
    orientable expression, so geometric distances coincide too.  Both
    fundamental polygons have 4h sides, so both rows take the same distance
    route and (n, k, d) is compared whole.  Every
    orientable-admissible signature is checked on both surfaces;
    mismatches are reported, never raised.  The report is the plain
    document ``floqtess equiv`` prints.
    """
    _check_genus(h, True)
    g_no = 2 * h
    rows: list[dict] = []
    mismatches: list[dict] = []
    for m in enumerate_signatures(h, True):
        po = code_params(m, h, True)
        pn = code_params(m, g_no, False)
        entry = {
            "signature": list(m),
            "orientable": {
                "n": po.n, "k": po.k, "d": po.d, "d_source": po.d_source,
            },
            "nonorientable": {
                "n": pn.n, "k": pn.k, "d": pn.d, "d_source": pn.d_source,
            },
            "match": (po.n, po.k, po.d) == (pn.n, pn.k, pn.d),
        }
        rows.append(entry)
        if not entry["match"]:
            mismatches.append(entry)
    s_o, s_n = systole(h, True), systole(g_no, False)
    diff = abs(s_o - s_n)
    return {
        "h": h,
        "genus_nonorientable": g_no,
        "systole_orientable": s_o,
        "systole_nonorientable": s_n,
        "systole_difference": diff,
        "signatures_checked": len(rows),
        "rows": rows,
        "mismatches": mismatches,
        "ok": not mismatches and diff <= 1e-12,
    }
