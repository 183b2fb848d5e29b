"""Pure-Python exact elimination kernels.

The whole library funnels its linear algebra through two functions:

  echelon_int(rows, reduce) -> (pivots, rows')
      Fraction-free (reduced) row echelon form of an integer matrix.  Rows of
      the result are primitive (content 1) with positive leading entry, so
      over Q the true RREF row is row / pivot_entry.

  echelon_mod(rows, p, reduce) -> (pivots, rows')
      (Reduced) row echelon form over F_p with pivots normalized to 1.

Both take a list of equal-length lists and return fresh lists.  Pivoting is
deterministic: first nonzero column, topmost available row.
"""

from math import gcd


def _make_primitive(row, start=0):
    # Divide by the content; force the leading nonzero entry positive.
    g = 0
    lead = 0
    for j in range(start, len(row)):
        x = row[j]
        if x:
            if g == 0:
                lead = x
            g = gcd(g, x)
            if g == 1 and lead > 0:
                return row
    if g == 0:
        return row
    if lead < 0:
        g = -g
    if g != 1:
        for j in range(start, len(row)):
            row[j] //= g
    return row


def echelon_int(rows, reduce=True):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        _make_primitive(m[r], c)
        a = m[r][c]
        mr = m[r]
        for i in range(r + 1, nrows):
            b = m[i][c]
            if b:
                mi = m[i]
                for j in range(c, ncols):
                    mi[j] = a * mi[j] - b * mr[j]
                _make_primitive(mi, c)
        pivots.append(c)
        r += 1
    if reduce:
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            a = m[k][c]
            mk = m[k]
            for i in range(k):
                b = m[i][c]
                if b:
                    mi = m[i]
                    for j in range(ncols):
                        mi[j] = a * mi[j] - b * mk[j]
                    _make_primitive(mi)
    return pivots, m


def echelon_mod(rows, p, reduce=True):
    m = [[x % p for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        mr = m[r]
        inv = pow(mr[c], -1, p)
        for j in range(c, ncols):
            mr[j] = (mr[j] * inv) % p
        for i in range(r + 1, nrows):
            b = m[i][c]
            if b:
                mi = m[i]
                for j in range(c, ncols):
                    mi[j] = (mi[j] - b * mr[j]) % p
        pivots.append(c)
        r += 1
    if reduce:
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            mk = m[k]
            for i in range(k):
                b = m[i][c]
                if b:
                    mi = m[i]
                    for j in range(c, ncols):
                        mi[j] = (mi[j] - b * mk[j]) % p
    return pivots, m
