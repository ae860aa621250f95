"""Command dispatch and deterministic JSON emission.

A run parses one script, executes its statements in order, and writes one
JSON document per command, failed declaration and unparsable statement
(JSON lines, keys sorted) to --out or stdout.
Failures become structured error objects and a nonzero exit status; output
for a fixed (script, flags, seed) is byte-identical across runs.

Resource limits come from the environment (GKIT_MONOMIAL_CAP,
GKIT_SYMBOL_CAP); everything else flows through flags.
"""

import argparse
import contextlib
import json
import operator
import os
import sys

from . import cohen, greenberg, selftest, units, witt
from .base import ArtinianBase, make_eisenstein, make_unramified
from .basefield import PrimeParams
from .errors import (
    GkitError,
    NotEisenstein,
    TypeMismatch,
    UnknownIdentifier,
)
from .dsl import Parser, parse  # noqa: F401 (re-exported as cli.parse)
from .polys import ElemDomain, SparsePoly
from .rings import FieldRing, IntegerRing


class SessionConfig:
    """Run settings.  ``jobs`` is validated and otherwise ignored: equation
    expansion is serial."""

    def __init__(self, jobs=1, seed=0, stage=0, monomial_cap=None, symbol_cap=None):
        if jobs < 1:
            raise TypeMismatch("--jobs must be >= 1")
        if stage < 0:
            raise TypeMismatch("--stage must be >= 0")
        self.seed = seed
        self.stage = stage
        self.monomial_cap = (
            monomial_cap if monomial_cap is not None else greenberg.DEFAULT_MONOMIAL_CAP
        )
        self.symbol_cap = (
            symbol_cap if symbol_cap is not None else greenberg.DEFAULT_SYMBOL_CAP
        )

    @classmethod
    def from_env(cls, jobs=1, seed=0, stage=0, env=os.environ):
        def cap(name):
            raw = env.get(name)
            if not raw:
                return None
            try:
                value = int(raw)
            except ValueError:
                raise TypeMismatch(f"{name}={raw!r} is not an integer") from None
            if value < 1:
                raise TypeMismatch(f"{name}={raw!r} must be >= 1")
            return value

        return cls(jobs, seed, stage, cap("GKIT_MONOMIAL_CAP"), cap("GKIT_SYMBOL_CAP"))


# ---------------------------------------------------------------------------
# Serialization (stable, string-based)
# ---------------------------------------------------------------------------


def cohen_to_json(c):
    coords = {}
    for (j, i), x in c.sorted_coords():
        key = ",".join(str(v) for v in (j,) + i)
        coords[key] = c.ring.to_string(x)
    return {"n": c.level - 1, "coords": coords}


def base_elem_to_json(b):
    return {"components": [cohen_to_json(c) for c in b.components]}


def witt_to_json(w):
    if isinstance(w.ring, IntegerRing):
        return list(w.entries)
    return [w.ring.to_string(e) for e in w.entries]


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _fold(node, leaf, divide):
    """Evaluate an expression tree: neg, pow, +, - and * through the
    operands' own operators, '/' through ``divide`` (after both operands),
    and int, name and call nodes through ``leaf``."""
    kind = node[0]
    if kind == "neg":
        return -_fold(node[1], leaf, divide)
    if kind == "pow":
        return _fold(node[1], leaf, divide) ** node[2]
    if kind == "bin":
        a, b = _fold(node[2], leaf, divide), _fold(node[3], leaf, divide)
        if node[1] == "+":
            return a + b
        if node[1] == "-":
            return a - b
        if node[1] == "*":
            return a * b
        return divide(a, b)
    return leaf(node)


def _refuse_division(message):
    def divide(a, b):
        raise TypeMismatch(message)

    return divide


def eval_int(ast):
    def leaf(node):
        if node[0] == "int":
            return node[1]
        raise TypeMismatch(f"expected an integer expression, found {node[0]}")

    return _fold(ast, leaf, _refuse_division("integer expressions do not support '/'"))


def eval_k(ast, params):
    def leaf(node):
        kind = node[0]
        if kind == "int":
            return params.from_int(node[1])
        if kind == "name":
            if node[1] in params.names:
                return params.gen(params.names.index(node[1]))
            raise UnknownIdentifier(f"unknown residue-field name {node[1]!r}")
        raise TypeMismatch(f"not a residue-field expression: {kind}")

    return _fold(ast, leaf, operator.truediv)


def _teich_arg(node, params):
    if len(node[2]) != 1:
        raise TypeMismatch("teich takes one argument")
    return eval_k(node[2][0], params)


def eval_ring_poly(ast, session, base, variables):
    """Evaluate an expression over a base ring, with scheme variables."""
    algebra = base.algebra()
    domain = ElemDomain(algebra.zero(), algebra.one())
    nvars = len(variables)

    def const(v):
        return SparsePoly.constant(domain, nvars, v)

    def leaf(node):
        kind = node[0]
        if kind == "int":
            return const(algebra.from_int(node[1]))
        if kind == "name":
            name = node[1]
            if name in variables:
                return SparsePoly.variable(domain, nvars, variables.index(name))
            if name == "p":
                return const(algebra.p())
            if name == "pi":
                return const(algebra.pi())
            if name in session.elems:
                ring_name, value = session.elems[name]
                if session.rings[ring_name] != base:
                    raise TypeMismatch(
                        f"element {name!r} lives over ring {ring_name!r}"
                    )
                return const(value)
            if name in session.params.names:
                raise TypeMismatch(
                    f"residue-field element {name!r} needs teich(..) in ring context"
                )
            raise UnknownIdentifier(f"unknown name {name!r}")
        if node[1] == "teich":
            return const(algebra.teich(_teich_arg(node, session.params)))
        raise UnknownIdentifier(f"unknown function {node[1]!r}")

    return _fold(ast, leaf, _refuse_division("ring expressions do not support '/'"))


def eval_base_elem(ast, session, base):
    return eval_ring_poly(ast, session, base, []).constant_value()


def eval_pi_poly(ast, session, m):
    """Evaluate an Eisenstein defining polynomial as a polynomial in pi over
    C_m(k), the unramified base of level m."""
    algebra = make_unramified(session.params, m).algebra()
    domain = ElemDomain(algebra.zero(), algebra.one())

    def const(v):
        return SparsePoly.constant(domain, 1, v)

    def leaf(node):
        kind = node[0]
        if kind == "int":
            return const(algebra.from_int(node[1]))
        if kind == "name":
            if node[1] == "pi":
                return SparsePoly.variable(domain, 1, 0)
            if node[1] == "p":
                return const(algebra.p())
            raise UnknownIdentifier(f"unknown name {node[1]!r} in E")
        if node[1] == "teich":
            return const(algebra.teich(_teich_arg(node, session.params)))
        raise TypeMismatch(f"bad E node {kind}")

    return _fold(ast, leaf, _refuse_division("E does not support '/'"))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


# witt <op> runs the witt function named here, looked up when the command
# runs, so that a wrapper patched onto the witt module is the one called
_WITT_OPS = {"add": "witt_add", "mul": "witt_mul", "neg": "witt_neg", "v": "verschiebung",
             "f": "frobenius"}


class Session:
    def __init__(self, config: SessionConfig):
        self.config = config
        self.params = None
        self.rings = {}
        self.schemes = {}
        self.elems = {}
        self._presentations = {}
        self.results = []
        self.failed = False

    # -- declarations --------------------------------------------------------

    def declare_base(self, decl):
        self.params = PrimeParams(decl["p"], len(decl["names"]), decl["names"])

    def _need_base(self):
        if self.params is None:
            raise TypeMismatch("no base {..} declaration yet")
        return self.params

    def declare_ring(self, decl):
        self._need_base()
        if decl["kind"] == "unramified":
            ring = make_unramified(self.params, decl["m"])
        else:
            poly = eval_pi_poly(decl["E"], self, decl["m"])
            deg = poly.degree_in(0)
            if poly.terms.get((deg,)) != poly.domain.one:
                raise NotEisenstein("E must be monic in pi")
            zero = poly.domain.zero
            coeffs = [poly.terms.get((i,), zero).components[0] for i in range(deg)]
            ring = make_eisenstein(self.params, decl["m"], coeffs)
        self.rings[decl["name"]] = ring

    def declare_scheme(self, decl):
        base = self.ring(decl["ring"])
        variables = decl["vars"]
        equations = []
        for ast in decl["eqs"]:
            poly = eval_ring_poly(ast, self, base, variables)
            equations.append(poly.terms)
        self.schemes[decl["name"]] = greenberg.AffinePresentation(
            base, variables, equations
        )
        self._presentations.pop(decl["name"], None)  # stages of the old equations

    def declare_elem(self, decl):
        base_name = decl["ring"] or self._only_ring_name()
        base = self.ring(base_name)
        self.elems[decl["name"]] = (base_name, eval_base_elem(decl["expr"], self, base))

    def ring(self, name) -> ArtinianBase:
        if name not in self.rings:
            raise UnknownIdentifier(f"unknown ring {name!r}")
        return self.rings[name]

    def scheme(self, name):
        if name not in self.schemes:
            raise UnknownIdentifier(f"unknown scheme {name!r}")
        return self.schemes[name]

    def _only_ring_name(self):
        if len(self.rings) == 1:
            return next(iter(self.rings))
        if not self.rings:
            raise TypeMismatch("no ring declared")
        raise TypeMismatch("several rings declared; use 'over <ring>' or --ring")

    def presentation(self, scheme_name, stage):
        """Stage s of a scheme's transform, each stage built once from the
        one below it, so stage 0 is expanded once per scheme.  A stage
        past the symbol cap is refused before any stage is built."""
        stages = self._presentations.setdefault(scheme_name, [])
        caps = self.config.monomial_cap, self.config.symbol_cap
        if len(stages) <= stage:
            greenberg.check_stage_symbols(self.scheme(scheme_name), stage, caps[1])
        if not stages:
            stages.append(greenberg.greenberg_transform(self.scheme(scheme_name), 0, *caps))
        while len(stages) <= stage:
            stages.append(stages[-1].restricted(*caps))
        return stages[stage]

    def declare(self, kind, decl):
        """Run one declaration; a failure becomes a declare.<kind> error
        record and the script goes on, as after a failing command."""
        try:
            getattr(self, f"declare_{kind}")(decl)
        except GkitError as exc:
            self.results.append(
                {"cmd": f"declare.{kind}", "status": "error", "error": exc.payload()}
            )
            self.failed = True

    # -- commands --------------------------------------------------------------

    def run_command(self, cmd):
        kind = cmd["kind"]
        record = {"cmd": kind}
        try:
            record.update(self._dispatch(cmd))
            record["status"] = "ok"
        except GkitError as exc:
            record["status"] = "error"
            record["error"] = exc.payload()
            self.failed = True
        self.results.append(record)
        return record

    def _witt_vector(self, entries_ast, flags):
        ring_name = flags.get("ring", "k")
        if ring_name == "int":
            ring = IntegerRing(self._need_base().p)
            return witt.WittVector(ring, tuple(eval_int(a) for a in entries_ast))
        if ring_name == "k":
            params = self._need_base()
            ring = FieldRing(params)
            return witt.WittVector(ring, tuple(eval_k(a, params) for a in entries_ast))
        raise TypeMismatch(f"unknown --ring {ring_name!r} (use k or int)")

    def _unit_arg(self, cmd):
        flags = cmd["flags"]
        base = self.ring(flags["ring"]) if "ring" in flags else self.ring(self._only_ring_name())
        return eval_base_elem(cmd["expr"], self, base)

    def _dispatch(self, cmd):
        kind = cmd["kind"]
        flags = cmd.get("flags", {})
        head, _, op = kind.partition(".")
        if kind == "selftest":
            seed = flags.get("seed", self.config.seed)
            report = selftest.run_selftest(seed)
            if not report["ok"]:
                self.failed = True
            return {"report": report}

        if head == "witt":
            if op == "teich":
                params = self._need_base()
                length = flags.get("len", 2)
                value = eval_k(cmd["expr"], params)
                return {"result": witt_to_json(witt.teichmuller(FieldRing(params), value, length))}
            if op == "ghost":
                vec = self._witt_vector(cmd["vectors"][0], {"ring": flags.get("ring", "int")})
                g = witt.ghost(cmd["r"], vec)
                return {"result": g if isinstance(g, int) else str(g)}
            vecs = [self._witt_vector(v, flags) for v in cmd["vectors"]]
            return {"result": witt_to_json(getattr(witt, _WITT_OPS[op])(*vecs))}

        if head == "cohen":
            vecs = [self._witt_vector(v, {"ring": "k"}) for v in cmd["vectors"]]
            elems = [cohen.extract(v) for v in vecs]
            if op == "extract":
                return {"result": cohen_to_json(elems[0])}
            if op == "add":
                return {"result": cohen_to_json(cohen.cohen_add(*elems))}
            if op == "mul":
                return {"result": cohen_to_json(cohen.cohen_mul(*elems))}
            if op == "embed":
                target = flags.get("to", elems[0].level + 1)
                return {"result": cohen_to_json(cohen.ver_embed(elems[0], target))}
            if op == "pdiv":
                e = flags.get("e", 1)
                return {"result": cohen_to_json(cohen.solve_p_division(elems[0], e))}
            if op == "residue":
                return {"result": str(cohen.residue(elems[0]))}

        if kind in ("greenberg", "point.push", "point.pull"):
            stage = flags.get("stage", self.config.stage)
            X = self.scheme(cmd["scheme"])
            pres = self.presentation(cmd["scheme"], stage)
            if kind == "point.push":
                point = [eval_base_elem(a, self, X.base) for a in cmd["vector"]]
                coords = greenberg.point_to_coords(X, pres, point)
                return {"coords": [str(c) for c in coords], "stage": stage}
            if kind == "point.pull":
                params = self._need_base()
                values = [eval_k(a, params) for a in cmd["vector"]]
                point = greenberg.coords_to_point(X, pres, values)
                return {
                    "point": [base_elem_to_json(v) for v in point],
                    "stage": stage,
                    "verified": True,
                }
            doc = pres.to_json()
            out = flags.get("out")
            summary = {
                "scheme": cmd["scheme"],
                "stage": stage,
                "symbols": len(pres.symbols),
                "equations": len(pres.equations),
            }
            if out:
                try:
                    with open(out, "w") as fh:
                        json.dump(doc, fh, sort_keys=True, indent=1)
                        fh.write("\n")
                except OSError as exc:
                    raise TypeMismatch(f"--out {out!r} cannot be written: {exc.strerror}") from None
                summary["written"] = out
            else:
                summary["presentation"] = doc
            return summary

        if kind == "units.level":
            u = self._unit_arg(cmd)
            level = units.unit_level(u)
            return {"level": "infinity" if level is None else level}

        if kind == "units.ppow-solve":
            if "n" not in flags:
                raise TypeMismatch("units ppow-solve needs --n")
            v = self._unit_arg(cmd)
            u = units.p_power_solve(v, flags["n"])
            return {"solution": base_elem_to_json(u), "verified": True}

        raise TypeMismatch(f"unknown command {kind!r}")


def run_script(text, config: SessionConfig):
    """Parse and execute; returns the session, whose ``results`` hold one
    record per command, failed declaration and unparsable statement."""
    session = Session(config)
    for kind, payload in Parser(text).parse_script():
        if kind == "parse":
            session.results.append({"cmd": "parse", "status": "error", "error": payload.payload()})
            session.failed = True
        elif kind == "cmd":
            session.run_command(payload)
        else:
            session.declare(kind, payload)
    return session


def _emit(records, stream):
    for record in records:
        stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        stream.write("\n")


def _read_script(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise TypeMismatch(f"--script {path!r} cannot be read: {reason}") from None


def _open_out(path):
    """``--out`` is opened before the script runs, so a path that cannot be
    written costs no work."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise TypeMismatch(f"--out {path!r} cannot be written: {exc.strerror}") from None


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gkit",
        description="exact Witt/Cohen/Greenberg computations over F_p(t_1..t_d)",
    )
    ap.add_argument("shortcut", nargs="?", choices=["selftest"], help="run the selftest without a script")
    ap.add_argument("--script", help="script file to execute")
    ap.add_argument("--out", help="write JSON lines here instead of stdout")
    ap.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    ap.add_argument("--stage", type=int, default=0, help="default restriction stage")
    args = ap.parse_args(argv)

    if args.shortcut != "selftest" and not args.script:
        ap.error("need --script FILE or the selftest shortcut")
    try:
        text = "selftest;" if args.shortcut == "selftest" else _read_script(args.script)
        out = _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    except GkitError as exc:
        _emit([{"status": "error", "error": exc.payload()}], sys.stdout)
        return 1

    with out as stream:
        try:
            config = SessionConfig.from_env(jobs=args.jobs, seed=args.seed, stage=args.stage)
            session = run_script(text, config)
            records = session.results
            failed = session.failed
        except GkitError as exc:
            records = [{"status": "error", "error": exc.payload()}]
            failed = True
        _emit(records, stream)
        if args.out:  # a command may have written the same path meanwhile
            stream.truncate()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
