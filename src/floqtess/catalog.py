"""Signature enumeration, [[n,k,d]] tables, and the genus-equivalence check.

Assembles per-genus tables of code parameters over every admissible
tessellation signature, serialises them as CSV/JSON, scores estimated
distances against the frozen reference rows, and verifies that the
orientable surface of genus h and the non-orientable surface of genus 2h
(equal Euler characteristic) carry identical codes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import refdata
from .derive import _admitted_vertex_count
from .floquet import CodeParams, code_params
from .geodist import estimate_distance
from .hypgeo import SemiRegularSig, _check_genus, systole

CSV_HEADER = (
    "genus", "orientable", "signature", "n", "k", "d", "d_source",
    "k_n", "kd2_n", "d_n",
)


def default_m_max(chi: int) -> int:
    """Largest face size any admissible triple can carry at this chi.

    A face of size m only exists when at least one whole copy fits:
    n >= m (orientable rule; the merged-size rule needs n >= m/2 or m/3,
    which is weaker still).  The loosest even triple is (4, 6, m), giving
    n = 12|chi|*m/(m-12), and n >= m there forces m <= 12|chi| + 12.
    """
    if chi >= 0:
        raise ValueError("hyperbolic surfaces have negative Euler characteristic")
    return 12 * abs(chi) + 12


def enumerate_signatures(
    genus: int, orientable: bool = True, m_max: int | None = None
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
    triple either.
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
            for m3 in range(m2, top + 1, 2):
                if _admitted_vertex_count((m1, m2, m3), chi, orientable) is not None:
                    out.append((m1, m2, m3))
    return tuple(out)


def build_table(
    genera: int | Iterable[int],
    orientable: bool = True,
    d_mode: str = "auto",
) -> tuple[CodeParams, ...]:
    """One row per admissible signature per genus, deterministic order."""
    if isinstance(genera, int):
        genera = (genera,)
    rows = []
    for g in sorted(set(genera)):
        for m in enumerate_signatures(g, orientable):
            rows.append(code_params(m, g, orientable, d_mode))
    return tuple(rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def table_to_csv(rows: Iterable[CodeParams]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow((
            r.genus,
            "true" if r.orientable else "false",
            "[" + ",".join(str(x) for x in r.signature) + "]",
            r.n, r.k, r.d, r.d_source,
            _fmt(r.k / r.n), _fmt(r.k * r.d * r.d / r.n), _fmt(r.d / r.n),
        ))
    return buf.getvalue()


def table_to_json(rows: Iterable[CodeParams]) -> list[dict]:
    return [r.as_json() for r in rows]


def encoding_rate(m: Sequence[int], genus: int, orientable: bool = True) -> Fraction:
    """k/n as exact arithmetic, whether or not the cell counts are integral.

    Twice this is the rate under the k = 4 - 2*chi convention (twice the
    steady-state logical count), where the quoted family formulas hold
    exactly: (g/(g-1))*(p-3)/(3p) for [6,6,2p] and (g/(g-1))*(pq-p-2q)/(pq)
    for [2p,2p,2q], with limits 1/3 and 1.
    """
    chi = _check_genus(genus, orientable)
    sig = SemiRegularSig(tuple(m))
    slack = Fraction(1, 2) - sum(Fraction(1, x) for x in sig.m)
    return (2 - chi) * slack / abs(chi)


# Largest |estimated d - reference d| the reports count as within tolerance.
TOLERANCE = 1


def _scored(genus: int, orientable: bool, m, row, **extra) -> dict:
    """One report row: the estimated distance of ``m`` against ``row.d``."""
    est = estimate_distance(m, genus, orientable)
    return {
        "genus": genus,
        "orientable": orientable,
        "signature": list(m),
        "n": row.n,
        "k": row.k,
        "reference_d": row.d,
        "estimated_d": est.d,
        "delta": est.d - row.d,
        "within_tolerance": abs(est.d - row.d) <= TOLERANCE,
        **extra,
        "convention": est.convention_tag,
    }


def estimator_report(genus: int, orientable: bool = True) -> dict:
    """Estimated-vs-reference distances at one genus, machine readable.

    ``n`` and ``k`` always match by construction (they are recounted), so
    the report concentrates on ``d``: every nonzero delta lands in
    ``deviations`` and ``ok`` says whether all rows sit within tolerance.
    """
    tables = (
        refdata.SEMIREGULAR_ORIENTABLE if orientable
        else refdata.SEMIREGULAR_NONORIENTABLE
    )
    entries = [_scored(genus, orientable, row.m, row) for row in refdata.dedup(tables[genus])]
    return {
        "genus": genus,
        "orientable": orientable,
        "tolerance": TOLERANCE,
        "rows": entries,
        "deviations": [e for e in entries if e["delta"] != 0],
        "ok": all(e["within_tolerance"] for e in entries),
    }


def family_report(orientable: bool = True, genera: Iterable[int] | None = None) -> dict:
    """Estimator sweep over the [6,6,8] family reference rows.

    Rows whose own ratio columns contradict their [[n,k,d]] are flagged
    ``reference_row_consistent: false`` and excluded from the ``ok``
    verdict — a corrupt reference value cannot fail the estimator — but
    they still appear in ``rows`` and ``deviations``.
    """
    ref = (
        refdata.HEXHEX_ORIENTABLE if orientable
        else refdata.HEXHEX_NONORIENTABLE
    )
    if genera is not None:
        wanted = set(genera)
        ref = tuple(r for r in ref if r.genus in wanted)
    entries = [
        _scored(row.genus, orientable, refdata.HEXHEX_SIGNATURE, row,
                reference_row_consistent=refdata.ratios_consistent(row))
        for row in ref
    ]
    return {
        "signature": list(refdata.HEXHEX_SIGNATURE),
        "orientable": orientable,
        "tolerance": TOLERANCE,
        "rows": entries,
        "deviations": [e for e in entries if e["delta"] != 0],
        "flagged": [e for e in entries if not e["reference_row_consistent"]],
        "ok": all(
            e["within_tolerance"]
            for e in entries if e["reference_row_consistent"]
        ),
    }


@dataclass(frozen=True)
class EquivalenceReport:
    """Orientable genus h versus non-orientable genus 2h, same chi."""

    h: int
    genus_nonorientable: int
    systole_orientable: float
    systole_nonorientable: float
    rows: tuple[dict, ...]
    mismatches: tuple[dict, ...]

    @property
    def systole_difference(self) -> float:
        return abs(self.systole_orientable - self.systole_nonorientable)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.systole_difference <= 1e-12

    def as_json(self) -> dict:
        return {
            "h": self.h,
            "genus_nonorientable": self.genus_nonorientable,
            "systole_orientable": self.systole_orientable,
            "systole_nonorientable": self.systole_nonorientable,
            "systole_difference": self.systole_difference,
            "signatures_checked": len(self.rows),
            "rows": list(self.rows),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def equivalence_check(h: int) -> EquivalenceReport:
    """Codes at orientable genus h equal those at non-orientable genus 2h.

    Both surfaces share chi = 2 - 2h, hence the same counts and the same
    logical count; the even-genus non-orientable systole collapses to the
    orientable expression, so geometric distances coincide too.  Every
    orientable-admissible signature is checked on both surfaces;
    mismatches are reported, never raised.
    """
    _check_genus(h, True)
    g_no = 2 * h
    rows: list[dict] = []
    mismatches: list[dict] = []
    for m in enumerate_signatures(h, True):
        po = code_params(m, h, True)
        pn = code_params(m, g_no, False)
        comparable = po.d_source == pn.d_source
        entry = {
            "signature": list(m),
            "orientable": {
                "n": po.n, "k": po.k, "d": po.d, "d_source": po.d_source,
            },
            "nonorientable": {
                "n": pn.n, "k": pn.k, "d": pn.d, "d_source": pn.d_source,
            },
            "match": (po.n, po.k) == (pn.n, pn.k)
            and (not comparable or po.d == pn.d),
        }
        rows.append(entry)
        if not entry["match"]:
            mismatches.append(entry)
    return EquivalenceReport(
        h=h,
        genus_nonorientable=g_no,
        systole_orientable=systole(h, True),
        systole_nonorientable=systole(g_no, False),
        rows=tuple(rows),
        mismatches=tuple(mismatches),
    )
