"""Algebra spec files: the JSON exchange format of the CLI.

Schema (unknown keys are rejected):

  {
    "field": "Q" | {"Fp": p},
    "presentation":
        {"vertices": [...], "arrows": [[name, source, target], ...],
         "relations": [[[coeff, [arrow names in written order]], ...], ...],
         "max_path_length": n}
      | {"structure_constants":
          {"basis": [names], "table": [[i, j, k, coeff], ...],
           "unit": [coeff, ...],
           "idempotents": [{"coords": [...], "label": l}, ...]}},
    "order": [[a, b], ...],                # cover pairs of the labelling poset
    "subalgebras": {name: {"idempotents": [{"label": l, "element": spec}, ...],
                            "generators": [spec, ...]}},   # optional
    "tables": <MultTables JSON>,                            # optional
    "meta": {...}                                           # optional, free-form
  }

Element specs: {"path": [...]} (written order; a single vertex label means the
trivial path), or {"coords": [...]} with scalars as strings.  Scalars follow
the field's string format ("p/q" over Q, "r mod p" over F_p); plain integers
are accepted too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield

from .algebra import Algebra, compile_quiver, structure_constant_algebra
from .errors import InputError
from .kernel.fields import field_from_json
from .quiver import QuiverPresentation
from .strat import LabelPoset

_TOP_KEYS = {"field", "presentation", "order", "subalgebras", "tables", "meta"}
_SC_KEYS = {"basis", "table", "unit", "idempotents"}
_PRES_KEYS = {"vertices", "arrows", "relations", "max_path_length"}


@dataclass
class SpecData:
    algebra: Algebra
    poset: LabelPoset
    subalgebras: dict = dfield(default_factory=dict)  # name -> (idem_gens, gens)
    tables: object = None
    meta: dict = dfield(default_factory=dict)


def parse_element(A, spec):
    if isinstance(spec, dict) and set(spec) == {"path"}:
        return A.element_from_path([str(x) for x in spec["path"]])
    if isinstance(spec, dict) and set(spec) == {"coords"}:
        return A.coerce_vec(spec["coords"])
    raise InputError(f"bad element spec {spec!r}")


def load_spec(obj) -> SpecData:
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise InputError(f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise InputError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("field", "presentation", "order"):
        if key not in obj:
            raise InputError(f"missing required key {key!r}")
    fld = field_from_json(obj["field"])
    pres = obj["presentation"]
    if "structure_constants" in pres:
        if set(pres) != {"structure_constants"}:
            raise InputError("presentation mixes quiver and structure-constant forms")
        sc = pres["structure_constants"]
        unknown = set(sc) - _SC_KEYS
        if unknown:
            raise InputError(f"unknown structure_constants keys {sorted(unknown)}")
        table = []
        for row in sc["table"]:
            i, j, k, c = row
            table.append((int(i), int(j), int(k), fld.coerce(c)))
        idems = [(item["coords"], str(item["label"])) for item in sc["idempotents"]]
        A = structure_constant_algebra(fld, [str(n) for n in sc["basis"]], table, sc["unit"], idems)
    else:
        unknown = set(pres) - _PRES_KEYS
        if unknown:
            raise InputError(f"unknown presentation keys {sorted(unknown)}")
        relations = []
        for rel in pres.get("relations", []):
            relations.append([(fld.coerce(c), tuple(p)) for c, p in rel])
        qp = QuiverPresentation.make(pres["vertices"], pres["arrows"], relations, pres["max_path_length"])
        A = compile_quiver(qp, fld)
    poset = LabelPoset(A.labels, [tuple(p) for p in obj["order"]])
    subs = {}
    for name, sub in obj.get("subalgebras", {}).items():
        idem = [(parse_element(A, it["element"]), str(it["label"])) for it in sub["idempotents"]]
        gens = [parse_element(A, g) for g in sub.get("generators", [])]
        subs[str(name)] = (idem, gens)
    tables = None
    if "tables" in obj:
        from .vmult import MultTables

        tables = MultTables.from_json(obj["tables"])
    return SpecData(A, poset, subs, tables, obj.get("meta", {}))


def load_spec_file(path) -> SpecData:
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


def export_algebra(A, poset=None, meta=None) -> dict:
    """Structure-constant spec of any Algebra; re-importing gives an equal one."""
    fld = A.field
    n = A.dim
    table = []
    # row-major: entry (i*n + j)*n + k of the table is the coefficient of b_k in b_i * b_j
    for i, r in enumerate(A.table.nonzeros):
        for jk in r[0] if r else ():
            table.append([i, *divmod(jk, n), fld.fmt(A.table[i, jk])])
    out = {
        "field": fld.to_json(),
        "presentation": {
            "structure_constants": {
                "basis": list(A.basis_names),
                "table": table,
                "unit": [fld.fmt(c) for c in A.unit.row(0)],
                "idempotents": [
                    {"coords": [fld.fmt(c) for c in v.row(0)], "label": lab} for v, lab in A.idempotents
                ],
            }
        },
        "order": [list(p) for p in (poset.cover_pairs() if poset else [])],
    }
    if meta:
        out["meta"] = meta
    return out


def dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)
