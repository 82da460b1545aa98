"""Build the fixture corpus under src/rp3vertex/fixtures/.

Each fixture is one displayed series: either a table of exact rational
coefficients through total degree 3 (kind "kahler") or one coefficient's
printed expansion list (kind "qexp", stored shifted so the residual starts
at order zero in both variables, matching the deterministic prefactor
extraction).

Transcriptions follow the displayed text; the handful of corrections are
flagged in "notes" fields, each justified by an internal cross-check
(the t=q reduction between displays, or the printed expansion list of the
same coefficient).

Usage:
    python tools/make_fixtures.py

It takes no arguments, and refuses any before writing a file.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rp3vertex.ring import RF_ONE, KahlerSeries, Laurent, RationalFunction

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "rp3vertex", "fixtures")

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)
one = RF_ONE
T = Laurent.monomial(0, 2)


def kahler_json(entries, cutoff=3):
    return KahlerSeries(cutoff, entries).to_json()


def qexp_json(entries):
    """entries: list over printed q powers of int | Laurent in T; canonical shift."""
    table = {}
    for k, e in enumerate(entries):
        poly = e if isinstance(e, Laurent) else Laurent.const(e)
        if poly:
            table[k] = {te: v for (_qe, te), v in poly.terms.items()}
    qmin = min(table)
    tmin = min(te for poly in table.values() for te in poly)
    coeffs = []
    for k in sorted(table):
        poly = [{"te": te - tmin, "num": str(v), "den": "1"}
                for te, v in sorted(table[k].items())]
        coeffs.append({"qe": 2 * (k - qmin), "poly_t": poly})
    order = 2 * (max(table) - qmin)
    return {"prefactor": None, "order": order, "var": "q", "coeffs": coeffs}


FIXTURES = []


def rf_fixture(fid, source, alpha, gamma, refined, entries, *, normalized=True,
               geometry="local_p1xp1", notes=None, cutoff=3):
    FIXTURES.append({
        "id": fid, "source": source, "kind": "kahler",
        "spec": {"geometry": geometry, "alpha": alpha, "gamma": gamma,
                 "refined": refined, "cutoff": cutoff, "normalized": normalized},
        **({"notes": notes} if notes else {}),
        "expected": kahler_json(entries, cutoff),
    })


def qexp_fixture(fid, source, alpha, gamma, refined, coeff, entries, *,
                 normalized=True, geometry="local_p1xp1", notes=None, cutoff=3):
    FIXTURES.append({
        "id": fid, "source": source, "kind": "qexp",
        "spec": {"geometry": geometry, "alpha": alpha, "gamma": gamma,
                 "refined": refined, "cutoff": cutoff, "normalized": normalized,
                 "coeff": list(coeff)},
        **({"notes": notes} if notes else {}),
        "expected": qexp_json(entries),
    })


# --------------------------------------------------------------------------
# Regular series, equations (2)-(6)
# --------------------------------------------------------------------------

rf_fixture("eq2", "equation (2): fundamental unknot, one parameter",
           "[1]", "[]", False, {
               (0, 0): qh / (1 - q),
               (1, 0): qh / (1 - q),
               (1, 1): 2 * qh / (1 - q),
               (2, 1): 4 * qh / (1 - q),
               (1, 2): 3 * qh / (1 - q),
           })

rf_fixture("eq3", "equation (3): two-box column unknot, one parameter",
           "[1,1]", "[]", False, {
               (0, 0): q / ((1 - q) * (1 - q ** 2)),
               (1, 0): 1 / (1 - q) ** 2,
               (2, 0): q / ((1 - q) * (1 - q ** 2)),
               (1, 1): 2 * (q + 1) / ((1 - q) * (1 - q ** 2)),
               (1, 2): 3 / (1 - q) ** 2,
               (2, 1): 2 * (2 + q) / (1 - q) ** 2,
           })

rf_fixture("eq4", "equation (4): three-box column unknot, one parameter",
           "[1,1,1]", "[]", False, {
               (0, 0): qh ** 3 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 0): 1 / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 0): 1 / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 1): 2 / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (3, 0): q ** 2 / (qh * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (2, 1): 2 * (3 + 4 * q + 4 * q ** 2 + q ** 3) / (qh * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 2): 3 * (1 + q + q ** 2) / (qh * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
           })

rf_fixture("eq5", "equation (5): fundamental-fundamental Hopf, one parameter",
           "[1]", "[1]", False, {
               (0, 0): q / (1 - q) ** 2,
               (1, 0): (1 + q ** 2) / (1 - q) ** 2,
               (2, 0): q / (1 - q) ** 2,
               (1, 1): 2 * (1 + q ** 2) / (1 - q) ** 2,
               (2, 1): 4 * (1 + q + q ** 2) / (1 - q) ** 2,
               (1, 2): 3 * (1 + q ** 2) / (1 - q) ** 2,
           })

rf_fixture("eq6", "equation (6): fundamental and two-box column Hopf, one parameter",
           "[1]", "[1,1]", False, {
               (0, 0): qh ** 3 / ((1 - q) ** 2 * (1 - q ** 2)),
               (1, 0): (1 + q ** 2 + q ** 3) / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 0): (1 + q ** 2 + q ** 3) / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 1): 2 * (1 + q ** 2 + q ** 3) / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (3, 0): q ** 2 / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 1): 2 * (3 + 2 * q + 3 * q ** 2 + 3 * q ** 3 + q ** 4) / (qh * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 2): 3 * (1 + q ** 2 + q ** 3) / (qh * (1 - q) ** 2 * (1 - q ** 2)),
           },
           notes="printed (2,1) entry has 6q^2 where 3q^2 is forced both by "
                 "the t=q reduction of the refined display and by the "
                 "appendix expansion list for the same coefficient")

# --------------------------------------------------------------------------
# Refined series, equations (9)-(13)
# --------------------------------------------------------------------------

rf_fixture("eq9", "equation (9): fundamental unknot, refined",
           "[1]", "[]", True, {
               (0, 0): qh / (1 - q),
               (1, 0): q / (th * (1 - q)),
               (1, 1): (q + t) / (th * (1 - q)),
               (2, 1): qh * (q ** 2 + 2 * q * t + t ** 2) / (t * q * (1 - q)),
               (1, 2): th * (q ** 2 + q * t + t ** 2) / (t * q * (1 - q)),
           })

rf_fixture("eq10", "equation (10): two-box column unknot, refined",
           "[1,1]", "[]", True, {
               (0, 0): q / ((1 - q) * (1 - q ** 2)),
               (1, 0): (qh ** 3 / th ** 3) * (1 - q + t) / (1 - q) ** 2,
               (2, 0): q ** 2 / (t * (1 - q) * (1 - q ** 2)),
               (1, 1): (qh / th) * (q - q ** 3 + t + q * t + t ** 2 + q * t ** 2) / (t * (1 - q) * (1 - q ** 2)),
               (1, 2): (q ** 2 - q ** 3 + q * t + t ** 2 + t ** 3) / (t * qh * th * (1 - q) ** 2),
               (2, 1): (q ** 2 - q ** 3 + 2 * q * t + t ** 2 + 2 * q * t ** 2 + t ** 3) / (t ** 2 * (1 - q) ** 2),
           })

_big11 = 1 - q - q ** 2 + q ** 3 + t - q ** 2 * t + t ** 2
rf_fixture("eq11", "equation (11): three-box column unknot, refined",
           "[1,1,1]", "[]", True, {
               (0, 0): qh ** 3 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 0): q ** 2 * _big11 / (th ** 5 * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 0): qh ** 5 * _big11 / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 1): q * th * (q - q ** 2 - q ** 3 + q ** 4 + t - q ** 2 * t + t ** 2 + q * t ** 2 - q ** 2 * t ** 2 + t ** 3) / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (3, 0): q ** 3 * th ** 3 / (t ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (2, 1): qh * (2 * q ** 2 - 2 * q ** 4 - 2 * q ** 5 + 2 * q ** 7
                             + (3 * q + 3 * q ** 2 - 3 * q ** 4 - 3 * q ** 5) * t
                             + (1 + 4 * q + 5 * q ** 2 + 2 * q ** 3 - q ** 4 - 2 * q ** 5) * t ** 2
                             + (1 + 4 * q + 4 * q ** 2 + 3 * q ** 3) * t ** 3
                             + (1 + q + q ** 2) * t ** 4) / (t ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 2): th * (q ** 2 - q ** 4 - q ** 5 + q ** 7
                             + (q + q ** 2 - q ** 4 - q ** 5) * t
                             + (1 + q + q ** 2) * t ** 2
                             + (1 + 2 * q + q ** 2 - q ** 4) * t ** 3
                             + (1 + q + q ** 2) * t ** 4) / (t ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
           })

rf_fixture("eq12", "equation (12): fundamental-fundamental Hopf, refined",
           "[1]", "[1]", True, {
               (0, 0): q / (1 - q) ** 2,
               (1, 0): (qh ** 3 / th ** 3) * (1 - q + t + q * t) / (1 - q) ** 2,
               (2, 0): q ** 2 / (t * (1 - q) ** 2),
               (1, 1): (qh / th) * (q - q ** 2 + t + q ** 2 * t + t ** 2 + q * t ** 2) / (t * (1 - q) ** 2),
               (1, 2): (th / qh) * (q ** 2 - q ** 3 + q * t + q ** 3 * t + t ** 2 + q ** 2 * t ** 2 + t ** 3 + q * t ** 3) / (t ** 2 * (1 - q) ** 2),
               (2, 1): (q ** 2 - q ** 3 + 2 * q * t + q ** 2 * t + q ** 3 * t + t ** 2 + 3 * q * t ** 2 + 2 * q ** 2 * t ** 2 + t ** 3 + q * t ** 3) / (t ** 2 * (1 - q) ** 2),
           })

_big13 = (1 - q - q ** 2 + q ** 3 + t + q * t - q ** 2 * t - q ** 3 * t
          + t ** 2 + q * t ** 2 + q ** 2 * t ** 2)
rf_fixture("eq13", "equation (13): fundamental and two-box column Hopf, refined",
           "[1]", "[1,1]", True, {
               (0, 0): qh ** 3 / ((1 - q) ** 2 * (1 - q ** 2)),
               (1, 0): q ** 2 * _big13 / (th ** 5 * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 0): qh ** 5 * _big13 / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 1): q * th * (q - q ** 2 - q ** 3 + q ** 4 + t - q ** 4 * t + t ** 2 + 2 * q * t ** 2 + t ** 3 + q * t ** 3 + q ** 2 * t ** 3) / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (3, 0): q ** 3 * th ** 3 / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 1): qh * (2 * q ** 2 - 2 * q ** 3 - 2 * q ** 4 + 2 * q ** 5
                             + 3 * q * t + q ** 2 * t - q ** 3 * t - q ** 4 * t - 2 * q ** 5 * t
                             + t ** 2 + 4 * q * t ** 2 + 4 * q ** 2 * t ** 2
                             + t ** 3 + 4 * q * t ** 3 + 4 * q ** 2 * t ** 3 + 3 * q ** 3 * t ** 3
                             + t ** 4 + q * t ** 4 + q ** 2 * t ** 4) / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 2): th * (q ** 2 - q ** 3 - q ** 4 + q ** 5
                             + q * t - q ** 5 * t
                             + t ** 2 + q ** 2 * t ** 2 + q ** 3 * t ** 2
                             + t ** 3 + 2 * q * t ** 3
                             + t ** 4 + q * t ** 4 + q ** 2 * t ** 4) / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2)),
           },
           notes="printed (2,0) entry reads q^2 where q^(5/2) is forced by the "
                 "stated t=q reduction to the one-parameter Hopf display; "
                 "printed (1,1) entry likewise carries t^(1/2) less than the "
                 "reduction requires")

# --------------------------------------------------------------------------
# Closed normalization, appendix B
# --------------------------------------------------------------------------

rf_fixture("appB", "appendix B: closed-string normalization, refined",
           "[]", "[]", True, {
               (0, 0): one,
               (1, 0): 2 * qh * th / ((1 - t) * (1 - q)),
               (0, 1): (t + q) / ((1 - t) * (1 - q)),
               (2, 0): t * q * (3 + q + t + 3 * q * t) / ((1 - q) * (1 - q ** 2) * (1 - t) * (1 - t ** 2)),
               (1, 1): (t ** 2 - t ** 4 + 2 * q * t * (1 + t) + 2 * q ** 3 * t ** 2 * (1 + t) + q ** 4 * (t ** 2 - 1) + q ** 2 * (1 + t) ** 2 * (1 + t ** 2)) / (qh * th * (1 - q) * (1 - q ** 2) * (1 - t) * (1 - t ** 2)),
               (0, 2): (q ** 3 * t + t ** 2 + q ** 2 * (1 + t + t ** 2) + q * t * (1 + t + t ** 2)) / ((1 - q) * (1 - q ** 2) * (1 - t) * (1 - t ** 2)),
               (3, 0): (2 * q ** 4 * t ** 3 * (1 + t) ** 3 + 2 * q ** 5 * t ** 3 * (1 + t) ** 3 + 2 * q ** 3 * t ** 3 * (2 + t + t ** 2) + 2 * q ** 6 * t ** 4 * (1 + t + 2 * t ** 2)) / (qh ** 3 * th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - t) * (1 - t ** 2) * (1 - t ** 3)),
               (2, 1): qh * th * (1 + q + q ** 2) * (1 + t + t ** 2) * (
                   q ** 6 * (t - 1) ** 2 * (1 + t) + (t - 1) ** 2 * t ** 3 * (1 + t)
                   - q * t ** 2 * (-2 + t + t ** 2 - t ** 3 + t ** 4)
                   + q ** 5 * (-1 + t - t ** 2 - t ** 3 + 2 * t ** 4)
                   - q ** 2 * t * (-2 - 2 * t ** 2 - 2 * t ** 3 + t ** 4 + t ** 5)
                   + q ** 4 * (-1 - t + 2 * t ** 2 + 2 * t ** 3 + 2 * t ** 5)
                   + q ** 3 * (1 - t + 2 * t ** 2 + 4 * t ** 3 + 2 * t ** 4 - t ** 5 + t ** 6)
               ) / (qh ** 3 * th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - t) * (1 - t ** 2) * (1 - t ** 3)),
               (1, 2): (1 + q + q ** 2) * (1 + t + t ** 2) * (
                   q ** 7 * (t - 1) ** 2 * (1 + t) + (t - 1) ** 2 * t ** 4 * (1 + t)
                   + q ** 6 * (-1 + t - t ** 3 + t ** 4)
                   - q * t ** 3 * (-1 + t - t ** 3 + t ** 4)
                   + q ** 5 * (-1 + t ** 2 + 2 * t ** 5)
                   + q ** 4 * (1 - t + 3 * t ** 3 + 2 * t ** 4 + t ** 6)
                   + q ** 2 * (2 * t ** 2 + t ** 5 - t ** 7)
                   + q ** 3 * (t + 2 * t ** 3 + 3 * t ** 4 - t ** 6 + t ** 7)
               ) / (qh ** 3 * th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - t) * (1 - t ** 2) * (1 - t ** 3)),
               (0, 3): (qh ** 3 * th ** 9 + qh ** 15 * th ** 9
                        + qh ** 13 * th ** 5 * (1 + 2 * t + t ** 2 + t ** 3)
                        + qh ** 5 * th ** 7 * (1 + t + 2 * t ** 2 + t ** 3)
                        + qh ** 11 * th ** 5 * (2 + 3 * t + 3 * t ** 2 + 2 * t ** 3 + t ** 4)
                        + qh ** 7 * th ** 5 * (1 + 2 * t + 3 * t ** 2 + 3 * t ** 3 + 2 * t ** 4)
                        + qh ** 9 * th ** 3 * (1 + t + 3 * t ** 2 + 4 * t ** 3 + 3 * t ** 4 + t ** 5 + t ** 6)
                        ) / (qh ** 3 * th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - t) * (1 - t ** 2) * (1 - t ** 3)),
           }, normalized=False)

# --------------------------------------------------------------------------
# Appendix C: symmetric colors, refined
# --------------------------------------------------------------------------

rf_fixture("appC_S2", "appendix C: two-box row unknot, refined",
           "[2]", "[]", True, {
               (0, 0): q ** 2 / ((1 - q) * (1 - q ** 2)),
               (1, 0): qh ** 5 / (th * (1 - q) ** 2),
               (2, 0): q ** 3 / (t * (1 - q) * (1 - q ** 2)),
               (1, 1): qh ** 3 * (1 + q) * (q + t) / (th * (1 - q) * (1 - q ** 2)),
               (2, 1): qh * (qh ** 3 + qh ** 5 + 2 * qh ** 3 * t + qh * t * (1 + t)) / (t * (1 - q) ** 2),
               (1, 2): qh * (q ** 2 * th + q * th ** 3 + th ** 5) / (t * (1 - q) ** 2),
           },
           notes="the first printed bracket omits the 1/t carried by every "
                 "other display in this family; (2,0) and (1,1) are stored "
                 "with it restored, matching the three-box row display and "
                 "the printed expansion lists")

rf_fixture("appC_S3", "appendix C: three-box row unknot, refined",
           "[3]", "[]", True, {
               (0, 0): qh ** 9 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 0): q ** 5 / (th * (1 - q) ** 2 * (1 - q ** 2)),
               (2, 0): qh ** 11 / (t * (1 - q) ** 2 * (1 - q ** 2)),
               (1, 1): (q ** 5 * th + q ** 4 * th ** 3) / (t * (1 - q) ** 2 * (1 - q ** 2)),
               (3, 0): q ** 6 / (th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (2, 1): q ** 3 * (2 * qh ** 9 * th + 3 * qh ** 7 * th * (1 + t) + qh * th ** 3 * (1 + t) + qh ** 3 * th * (1 + 4 * t + t ** 2) + qh ** 5 * th * (3 + 4 * t + t ** 2)) / (th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
               (1, 2): q ** 3 * (q ** 4 * t + t ** 3 + q ** 3 * t * (1 + t) + q * t ** 2 * (1 + t) + q ** 2 * t * (1 + t + t ** 2)) / (th ** 3 * (1 - q) * (1 - q ** 2) * (1 - q ** 3)),
           })

# --------------------------------------------------------------------------
# Expansion lists: section 3.2 (three-box column, one parameter)
# --------------------------------------------------------------------------

qexp_fixture("sec32_lambda3_q0", "section 3.2 list: constant coefficient",
             "[1,1,1]", "[]", False, (0, 0),
             [1, 1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 21, 24, 27])

qexp_fixture("sec32_lambda3_qb2qf", "section 3.2 list: (2,1) coefficient",
             "[1,1,1]", "[]", False, (2, 1),
             [3, 7, 14, 22, 33, 45, 60, 76, 95, 115, 138, 162, 189, 217, 248, 280])

qexp_fixture("sec32_lambda3_qbqf2", "section 3.2 list: (1,2) coefficient",
             "[1,1,1]", "[]", False, (1, 2),
             [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72])

# --------------------------------------------------------------------------
# Expansion lists: section 4.2 (refined unknots)
# --------------------------------------------------------------------------

qexp_fixture("sec42_fund_qbqf", "section 4.2 fundamental list: (1,1)",
             "[1]", "[]", True, (1, 1),
             [T] + [1 + T] * 13)

qexp_fixture("sec42_fund_qb2qf", "section 4.2 fundamental list: (2,1)",
             "[1]", "[]", True, (2, 1),
             [T ** 2, 2 * T + T ** 2] + [1 + 2 * T + T ** 2] * 14)

qexp_fixture("sec42_fund_qbqf2", "section 4.2 fundamental list: (1,2)",
             "[1]", "[]", True, (1, 2),
             [T ** 2, T + T ** 2] + [1 + T + T ** 2] * 14)

qexp_fixture("sec42_lambda2_qb", "section 4.2 two-box column list: (1,0)",
             "[1,1]", "[]", True, (1, 0),
             [1 + (k + 1) * T for k in range(16)])

qexp_fixture("sec42_lambda2_qbqf", "section 4.2 two-box column list: (1,1)",
             "[1,1]", "[]", True, (1, 1),
             [T * (1 + T)] + [1 + (k + 1) * T + (k + 1) * T ** 2 for k in range(1, 16)])

qexp_fixture("sec42_lambda3_qb", "section 4.2 three-box column list: (1,0)",
             "[1,1,1]", "[]", True, (1, 0),
             [1 + T + T ** 2, 1 + 2 * T + 2 * T ** 2, 1 + 3 * T + 4 * T ** 2,
              1 + 4 * T + 6 * T ** 2, 1 + 5 * T + 9 * T ** 2, 1 + 6 * T + 12 * T ** 2,
              1 + 7 * T + 16 * T ** 2, 1 + 8 * T + 20 * T ** 2, 1 + 9 * T + 25 * T ** 2,
              1 + 10 * T + 30 * T ** 2, 1 + 11 * T + 36 * T ** 2])

qexp_fixture("sec42_lambda3_qb2", "section 4.2 three-box column list: (2,0)",
             "[1,1,1]", "[]", True, (2, 0),
             [1 + T + T ** 2, 1 + 2 * T + 2 * T ** 2, 1 + 3 * T + 4 * T ** 2,
              1 + 4 * T + 6 * T ** 2, 1 + 5 * T + 9 * T ** 2, 1 + 6 * T + 12 * T ** 2,
              1 + 7 * T + 16 * T ** 2, 1 + 8 * T + 20 * T ** 2, 1 + 9 * T + 25 * T ** 2,
              1 + 10 * T + 30 * T ** 2, 1 + 11 * T + 36 * T ** 2])

qexp_fixture("sec42_lambda3_qbqf", "section 4.2 three-box column list: (1,1)",
             "[1,1,1]", "[]", True, (1, 1),
             [T * (1 + T + T ** 2), 1 + 2 * T + 3 * T ** 2 + 2 * T ** 3,
              1 + 3 * T + 5 * T ** 2 + 4 * T ** 3, 1 + 4 * T + 8 * T ** 2 + 6 * T ** 3,
              1 + 5 * T + 11 * T ** 2 + 9 * T ** 3, 1 + 6 * T + 15 * T ** 2 + 12 * T ** 3,
              1 + 7 * T + 19 * T ** 2 + 16 * T ** 3, 1 + 8 * T + 24 * T ** 2 + 20 * T ** 3,
              1 + 9 * T + 29 * T ** 2 + 25 * T ** 3, 1 + 10 * T + 35 * T ** 2 + 30 * T ** 3,
              1 + 11 * T + 41 * T ** 2 + 36 * T ** 3])

# --------------------------------------------------------------------------
# Expansion lists: section 4.3 (refined Hopf links)
# --------------------------------------------------------------------------

qexp_fixture("sec43_hopf11_qb", "section 4.3 fundamental Hopf list: (1,0)",
             "[1]", "[1]", True, (1, 0),
             [1 + (2 * k + 1) * T for k in range(16)])

qexp_fixture("sec43_hopf11_qbqf", "section 4.3 fundamental Hopf list: (1,1)",
             "[1]", "[1]", True, (1, 1),
             [T + T ** 2] + [1 + 2 * k * T + (2 * k + 1) * T ** 2 for k in range(1, 16)])

_hopf12_qb = [1 + T + T ** 2, 1 + 3 * T + 3 * T ** 2, 1 + 5 * T + 7 * T ** 2,
              1 + 7 * T + 12 * T ** 2, 1 + 9 * T + 19 * T ** 2,
              1 + 11 * T + 27 * T ** 2, 1 + 13 * T + 37 * T ** 2,
              1 + 15 * T + 48 * T ** 2, 1 + 17 * T + 61 * T ** 2,
              1 + 19 * T + 75 * T ** 2, 1 + 21 * T + 91 * T ** 2,
              1 + 23 * T + 108 * T ** 2, 1 + 25 * T + 127 * T ** 2,
              1 + 27 * T + 147 * T ** 2, 1 + 29 * T + 169 * T ** 2,
              1 + 31 * T + 192 * T ** 2]

qexp_fixture("sec43_hopf12_qb", "section 4.3 mixed Hopf list: (1,0)",
             "[1]", "[1,1]", True, (1, 0), _hopf12_qb)

qexp_fixture("sec43_hopf12_qb2", "section 4.3 mixed Hopf list: (2,0)",
             "[1]", "[1,1]", True, (2, 0),
             [0, 0] + _hopf12_qb[:14])

qexp_fixture("sec43_hopf12_qbqf", "section 4.3 mixed Hopf list: (1,1)",
             "[1]", "[1,1]", True, (1, 1),
             [0, T + T ** 2 + T ** 3, 1 + 2 * T + 4 * T ** 2 + 3 * T ** 3,
              1 + 4 * T + 8 * T ** 2 + 7 * T ** 3, 1 + 6 * T + 14 * T ** 2 + 12 * T ** 3,
              1 + 8 * T + 21 * T ** 2 + 19 * T ** 3, 1 + 10 * T + 30 * T ** 2 + 27 * T ** 3,
              1 + 12 * T + 40 * T ** 2 + 37 * T ** 3, 1 + 14 * T + 52 * T ** 2 + 48 * T ** 3,
              1 + 16 * T + 65 * T ** 2 + 61 * T ** 3, 1 + 18 * T + 80 * T ** 2 + 75 * T ** 3,
              1 + 20 * T + 96 * T ** 2 + 91 * T ** 3, 1 + 22 * T + 114 * T ** 2 + 108 * T ** 3,
              1 + 24 * T + 133 * T ** 2 + 127 * T ** 3, 1 + 26 * T + 154 * T ** 2 + 147 * T ** 3,
              1 + 28 * T + 176 * T ** 2 + 169 * T ** 3])

# --------------------------------------------------------------------------
# Expansion lists recorded in appendix B for the section 4 series
# --------------------------------------------------------------------------

qexp_fixture("appB_lambda2_qbqf2", "appendix B list, two-box column unknot: (1,2)",
             "[1,1]", "[]", True, (1, 2),
             [T ** 2 + T ** 3, T + 2 * T ** 2 + 2 * T ** 3,
              1 + 2 * T + 3 * T ** 2 + 3 * T ** 3]
             + [1 + (k + 1) * T + (k + 2) * T ** 2 + (k + 2) * T ** 3 for k in range(2, 15)])

qexp_fixture("appB_lambda2_qb2qf", "appendix B list, two-box column unknot: (2,1)",
             "[1,1]", "[]", True, (2, 1),
             [T ** 2 + T ** 3, 2 * (T + 2 * T ** 2 + T ** 3),
              1 + 4 * T + 7 * T ** 2 + 3 * T ** 3]
             + [1 + (2 * k + 2) * T + (3 * k + 4) * T ** 2 + (k + 2) * T ** 3 for k in range(2, 15)])

qexp_fixture("appB_lambda3_qb2qf", "appendix B list, three-box column unknot: (2,1)",
             "[1,1,1]", "[]", True, (2, 1),
             [T ** 2 * (1 + T + T ** 2), T * (3 + 5 * T + 5 * T ** 2 + 2 * T ** 3),
              2 + 6 * T + 11 * T ** 2 + 10 * T ** 3 + 4 * T ** 4,
              2 + 9 * T + 18 * T ** 2 + 18 * T ** 3 + 6 * T ** 4,
              2 + 12 * T + 27 * T ** 2 + 27 * T ** 3 + 9 * T ** 4,
              2 + 15 * T + 37 * T ** 2 + 39 * T ** 3 + 12 * T ** 4,
              2 + 18 * T + 49 * T ** 2 + 52 * T ** 3 + 16 * T ** 4,
              2 + 21 * T + 62 * T ** 2 + 68 * T ** 3 + 20 * T ** 4,
              2 + 24 * T + 77 * T ** 2 + 85 * T ** 3 + 25 * T ** 4,
              2 + 27 * T + 93 * T ** 2 + 105 * T ** 3 + 30 * T ** 4,
              2 + 30 * T + 111 * T ** 2 + 126 * T ** 3 + 36 * T ** 4])

qexp_fixture("appB_lambda3_qbqf2", "appendix B list, three-box column unknot: (1,2)",
             "[1,1,1]", "[]", True, (1, 2),
             [T ** 2 + T ** 3 + T ** 4, T + 2 * T ** 2 + 3 * T ** 3 + 2 * T ** 4,
              1 + 2 * T + 4 * T ** 2 + 5 * T ** 3 + 4 * T ** 4,
              1 + 3 * T + 6 * T ** 2 + 8 * T ** 3 + 6 * T ** 4,
              1 + 4 * T + 9 * T ** 2 + 11 * T ** 3 + 9 * T ** 4,
              1 + 5 * T + 12 * T ** 2 + 15 * T ** 3 + 12 * T ** 4,
              1 + 6 * T + 16 * T ** 2 + 19 * T ** 3 + 16 * T ** 4,
              1 + 7 * T + 20 * T ** 2 + 24 * T ** 3 + 20 * T ** 4,
              1 + 8 * T + 25 * T ** 2 + 29 * T ** 3 + 25 * T ** 4,
              1 + 9 * T + 30 * T ** 2 + 35 * T ** 3 + 30 * T ** 4,
              1 + 10 * T + 36 * T ** 2 + 41 * T ** 3 + 36 * T ** 4])

qexp_fixture("appB_hopf11_qb2qf", "appendix B list, fundamental Hopf: (2,1)",
             "[1]", "[1]", True, (2, 1),
             [T ** 2 * (1 + T), T * (2 + 5 * T + 3 * T ** 2),
              1 + 5 * T + 11 * T ** 2 + 5 * T ** 3]
             + [1 + (4 * k + 1) * T + (6 * k + 5) * T ** 2 + (2 * k + 3) * T ** 3 for k in range(2, 15)])

qexp_fixture("appB_hopf11_qbqf2", "appendix B list, fundamental Hopf: (1,2)",
             "[1]", "[1]", True, (1, 2),
             [T ** 2 + T ** 3, T + 2 * T ** 2 + 3 * T ** 3,
              1 + 2 * T + 4 * T ** 2 + 5 * T ** 3]
             + [1 + 2 * k * T + (2 * k + 2) * T ** 2 + (2 * k + 3) * T ** 3 for k in range(2, 15)])

qexp_fixture("appB_hopf12_qb3", "appendix B list, mixed Hopf: (3,0)",
             "[1]", "[1,1]", True, (3, 0),
             [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72])

qexp_fixture("appB_hopf12_qb2qf", "appendix B list, mixed Hopf: (2,1)",
             "[1]", "[1,1]", True, (2, 1),
             [T ** 2 * (1 + T + T ** 2), 3 * T * (1 + 2 * T + 2 * T ** 2 + T ** 3),
              2 + 7 * T + 16 * T ** 2 + 16 * T ** 3 + 7 * T ** 4,
              2 + 13 * T + 30 * T ** 2 + 33 * T ** 3 + 12 * T ** 4,
              2 + 19 * T + 49 * T ** 2 + 55 * T ** 3 + 19 * T ** 4,
              2 + 25 * T + 72 * T ** 2 + 84 * T ** 3 + 27 * T ** 4,
              2 + 31 * T + 100 * T ** 2 + 118 * T ** 3 + 37 * T ** 4,
              2 + 37 * T + 132 * T ** 2 + 159 * T ** 3 + 48 * T ** 4,
              2 + 43 * T + 169 * T ** 2 + 205 * T ** 3 + 61 * T ** 4,
              2 + 49 * T + 210 * T ** 2 + 258 * T ** 3 + 75 * T ** 4,
              2 + 55 * T + 256 * T ** 2 + 316 * T ** 3 + 91 * T ** 4,
              2 + 61 * T + 306 * T ** 2 + 381 * T ** 3 + 108 * T ** 4,
              2 + 67 * T + 361 * T ** 2 + 451 * T ** 3 + 127 * T ** 4,
              2 + 73 * T + 420 * T ** 2 + 528 * T ** 3 + 147 * T ** 4,
              2 + 79 * T + 484 * T ** 2 + 610 * T ** 3 + 169 * T ** 4,
              2 + 85 * T + 552 * T ** 2 + 699 * T ** 3 + 192 * T ** 4])

qexp_fixture("appB_hopf12_qbqf2", "appendix B list, mixed Hopf: (1,2)",
             "[1]", "[1,1]", True, (1, 2),
             [T ** 2 + T ** 3 + T ** 4, T + 2 * T ** 2 + 4 * T ** 3 + 3 * T ** 4,
              1 + 2 * T + 5 * T ** 2 + 8 * T ** 3 + 7 * T ** 4,
              1 + 4 * T + 9 * T ** 2 + 14 * T ** 3 + 12 * T ** 4,
              1 + 6 * T + 15 * T ** 2 + 21 * T ** 3 + 19 * T ** 4,
              1 + 8 * T + 22 * T ** 2 + 30 * T ** 3 + 27 * T ** 4,
              1 + 10 * T + 31 * T ** 2 + 40 * T ** 3 + 37 * T ** 4,
              1 + 12 * T + 41 * T ** 2 + 52 * T ** 3 + 48 * T ** 4,
              1 + 14 * T + 53 * T ** 2 + 65 * T ** 3 + 61 * T ** 4,
              1 + 16 * T + 66 * T ** 2 + 80 * T ** 3 + 75 * T ** 4,
              1 + 18 * T + 81 * T ** 2 + 96 * T ** 3 + 91 * T ** 4,
              1 + 20 * T + 97 * T ** 2 + 114 * T ** 3 + 108 * T ** 4,
              1 + 22 * T + 115 * T ** 2 + 133 * T ** 3 + 127 * T ** 4,
              1 + 24 * T + 134 * T ** 2 + 154 * T ** 3 + 147 * T ** 4,
              1 + 26 * T + 155 * T ** 2 + 176 * T ** 3 + 169 * T ** 4,
              1 + 28 * T + 177 * T ** 2 + 200 * T ** 3 + 192 * T ** 4])

# --------------------------------------------------------------------------
# Expansion lists: appendix C
# --------------------------------------------------------------------------

qexp_fixture("appC_S2_qbqf", "appendix C list, two-box row unknot: (1,1)",
             "[2]", "[]", True, (1, 1),
             [T] + [k + (k + 1) * T for k in range(1, 16)])

qexp_fixture("appC_S2_qbqf2", "appendix C list, two-box row unknot: (1,2)",
             "[2]", "[]", True, (1, 2),
             [T ** 2, T + 2 * T ** 2]
             + [k + (k + 1) * T + (k + 2) * T ** 2 for k in range(1, 15)])

qexp_fixture("appC_S2_qb2qf", "appendix C list, two-box row unknot: (2,1)",
             "[2]", "[]", True, (2, 1),
             [T + T ** 2, 1 + 4 * T + 2 * T ** 2]
             + [(2 * k + 1) + (3 * k + 4) * T + (k + 2) * T ** 2 for k in range(1, 15)])

qexp_fixture("appC_S3_qbqf", "appendix C list, three-box row unknot: (1,1)",
             "[3]", "[]", True, (1, 1),
             [T, 1 + 2 * T, 2 + 4 * T, 4 + 6 * T, 6 + 9 * T, 9 + 12 * T,
              12 + 16 * T, 16 + 20 * T, 20 + 25 * T, 25 + 30 * T, 30 + 36 * T,
              36 + 42 * T, 42 + 49 * T, 49 + 56 * T, 56 + 64 * T, 64 + 72 * T])

qexp_fixture("appC_S3_qbqf2", "appendix C list, three-box row unknot: (1,2)",
             "[3]", "[]", True, (1, 2),
             [T ** 2, T * (1 + 2 * T), 1 + 2 * T + 4 * T ** 2, 2 + 4 * T + 6 * T ** 2,
              4 + 6 * T + 9 * T ** 2, 6 + 9 * T + 12 * T ** 2, 9 + 12 * T + 16 * T ** 2,
              4 * (3 + 4 * T + 5 * T ** 2), 16 + 20 * T + 25 * T ** 2,
              5 * (4 + 5 * T + 6 * T ** 2), 25 + 30 * T + 36 * T ** 2,
              6 * (5 + 6 * T + 7 * T ** 2), 36 + 42 * T + 49 * T ** 2,
              7 * (6 + 7 * T + 8 * T ** 2), 49 + 56 * T + 64 * T ** 2,
              8 * (7 + 8 * T + 9 * T ** 2)])

qexp_fixture("appC_S3_qb2qf", "appendix C list, three-box row unknot: (2,1)",
             "[3]", "[]", True, (2, 1),
             [T * (1 + T), 1 + 5 * T + 2 * T ** 2, 4 + 10 * T + 4 * T ** 2,
              8 + 18 * T + 6 * T ** 2, 14 + 27 * T + 9 * T ** 2,
              3 * (7 + 13 * T + 4 * T ** 2), 30 + 52 * T + 16 * T ** 2,
              40 + 68 * T + 20 * T ** 2, 52 + 85 * T + 25 * T ** 2,
              5 * (13 + 21 * T + 6 * T ** 2), 80 + 126 * T + 36 * T ** 2,
              6 * (16 + 25 * T + 7 * T ** 2), 114 + 175 * T + 49 * T ** 2,
              7 * (19 + 29 * T + 8 * T ** 2), 154 + 232 * T + 64 * T ** 2,
              8 * (22 + 33 * T + 9 * T ** 2)])


def main(argv):
    if argv:
        print("usage: python tools/make_fixtures.py (no arguments)", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    ids = set()
    for fx in FIXTURES:
        assert fx["id"] not in ids, f"duplicate id {fx['id']}"
        ids.add(fx["id"])
        path = os.path.join(OUT, fx["id"] + ".json")
        with open(path, "w") as fh:
            json.dump(fx, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(FIXTURES)} fixtures to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
