"""Tokenizer and recursive-descent parser for the input script language.

Statements (each terminated by ';' except the braced declarations):

    base { p = 2; pbasis = [t]; }
    ring A = unramified(2);
    ring B = eisenstein(2, E = pi^2 - p);
    scheme X over A { vars [x]; eqs [ x^2 - teich(t)^2 ]; }
    elem g = teich(t) + p;
    witt add (1,0) (1,0);            cohen extract (0,t);
    greenberg X --stage 0 --out out.json;
    point push X (teich(t));         point pull X (0, 1, 0);
    units level g;                   units ppow-solve g --n 1;
    selftest --seed 42;

Expressions use integer literals, the declared p-basis names, the symbols
``p`` and ``pi`` (ring context), ``teich(..)``, previously declared element
names, scheme variables (inside eqs), and the operators + - * / ^ with the
usual precedence.  Parse errors carry line and column.
"""

import re

from .errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<flag>--[A-Za-z][A-Za-z0-9_-]*)
  | (?P<string>"[^"\n]*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}\[\]();,=^+\-*/])
    """,
    re.VERBOSE,
)


# Every command keyword, mapped to its subcommands (the key None when it
# takes none), each mapped to its arguments in order: "scheme" a scheme
# name, "r" an integer, "expr" an expression, "vector" the point of point
# push/pull, and "vec" one Witt vector of the payload's "vectors" list.
COMMANDS = {
    "witt": {"add": ("vec", "vec"), "mul": ("vec", "vec"), "neg": ("vec",), "v": ("vec",),
             "f": ("vec",), "ghost": ("r", "vec"), "teich": ("expr",)},
    "cohen": {"add": ("vec", "vec"), "mul": ("vec", "vec"), "extract": ("vec",),
              "embed": ("vec",), "pdiv": ("vec",), "residue": ("vec",)},
    "greenberg": {None: ("scheme",)},
    "point": {"push": ("scheme", "vector"), "pull": ("scheme", "vector")},
    "units": {"level": ("expr",), "ppow-solve": ("expr",)},
    "selftest": {None: ()},
}

_STATEMENT_KEYWORDS = frozenset(("base", "ring", "scheme", "elem", *COMMANDS))


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text):
    """Tokens with line and column, ending in an eof token; a character
    outside the token set becomes an error token, which the parser rejects
    inside its statement."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            tokens.append(Token("error", text[pos], line, col))
            col += 1
            pos += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            if kind == "punct":
                kind = value
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        tok = self.tokens[self.pos]
        if tok.kind == "error":
            raise ParseError(tok.line, tok.col, "a token", tok.value)
        return tok

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(tok.line, tok.col, repr(want), tok.value or "end of input")
        return self.next()

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def keyword(self):
        return self.expect("ident").value

    # -- grammar ---------------------------------------------------------------

    def parse_script(self):
        """(kind, payload) per statement in order.  A statement that does not
        parse becomes ("parse", ParseError), and parsing resumes after it
        (`_skip_statement`): after the next ';' at brace depth 0 from the
        statement's start, after the '}' that closes a braced declaration
        (a broken base or scheme declaration always runs to its '}'), or
        before the next statement keyword that begins a line or follows
        ';' or '}', whichever comes first."""
        statements = []
        while self.tokens[self.pos].kind != "eof":
            start = self.pos
            try:
                statements.append(self.parse_statement())
            except ParseError as exc:
                statements.append(("parse", exc))
                self.pos = start
                self._skip_statement()
        return statements

    def _skip_statement(self):
        # inside braces only pbasis, eqs or '}' can follow a ';', so a
        # keyword there starts the next statement, as one does on a new line
        braced = self.tokens[self.pos].value in ("base", "scheme")
        depth = 0
        while self.tokens[self.pos].kind != "eof":
            prev = self.next()
            depth += (prev.kind == "{") - (prev.kind == "}")
            if depth <= 0 and (prev.kind == "}" or (prev.kind == ";" and not braced)):
                return
            tok = self.tokens[self.pos]
            if (tok.kind == "ident" and tok.value in _STATEMENT_KEYWORDS
                    and (tok.line > prev.line or prev.kind in (";", "}"))):
                return

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.col, "a statement keyword", tok.value)
        word = tok.value
        if word in ("base", "ring", "scheme", "elem"):
            return getattr(self, f"parse_{word}")()
        if word in COMMANDS:
            return self.parse_command()
        raise ParseError(tok.line, tok.col, "a statement keyword", word)

    def parse_base(self):
        self.expect("ident", "base")
        self.expect("{")
        self.expect("ident", "p")
        self.expect("=")
        p = int(self.expect("int").value)
        self.expect(";")
        self.expect("ident", "pbasis")
        self.expect("=")
        self.expect("[")
        names = []
        if self.peek().kind == "ident":
            names.append(self.keyword())
            while self.accept(","):
                names.append(self.keyword())
        self.expect("]")
        self.expect(";")
        self.expect("}")
        return ("base", {"p": p, "names": names})

    def parse_ring(self):
        self.expect("ident", "ring")
        name = self.keyword()
        self.expect("=")
        kind = self.keyword()
        tok = self.peek()
        if kind == "unramified":
            self.expect("(")
            m = int(self.expect("int").value)
            self.expect(")")
            self.expect(";")
            return ("ring", {"name": name, "kind": "unramified", "m": m})
        if kind == "eisenstein":
            self.expect("(")
            m = int(self.expect("int").value)
            self.expect(",")
            self.expect("ident", "E")
            self.expect("=")
            expr = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ("ring", {"name": name, "kind": "eisenstein", "m": m, "E": expr})
        raise ParseError(tok.line, tok.col, "'unramified' or 'eisenstein'", kind)

    def parse_scheme(self):
        self.expect("ident", "scheme")
        name = self.keyword()
        self.expect("ident", "over")
        ring = self.keyword()
        self.expect("{")
        self.expect("ident", "vars")
        self.expect("[")
        variables = [self.keyword()]
        while self.accept(","):
            variables.append(self.keyword())
        self.expect("]")
        self.expect(";")
        self.expect("ident", "eqs")
        self.expect("[")
        eqs = []
        if self.peek().kind != "]":
            eqs.append(self.parse_expr())
            while self.accept(","):
                eqs.append(self.parse_expr())
        self.expect("]")
        self.expect(";")
        self.expect("}")
        return (
            "scheme",
            {"name": name, "ring": ring, "vars": variables, "eqs": eqs},
        )

    def parse_elem(self):
        self.expect("ident", "elem")
        name = self.keyword()
        self.expect("=")
        expr = self.parse_expr()
        ring = None
        if self.peek().kind == "ident" and self.peek().value == "over":
            self.next()
            ring = self.keyword()
        self.expect(";")
        return ("elem", {"name": name, "expr": expr, "ring": ring})

    def parse_command(self):
        """A command of `COMMANDS`: its keyword, its subcommand if it takes
        one, its arguments, its flags and ';'."""
        head = self.keyword()
        subs = COMMANDS[head]
        sub = None
        if None not in subs:
            tok = self.peek()
            sub = self.keyword()
            # a hyphenated subcommand is read as identifiers joined by '-'
            sub = next((s for s in subs if s.split("-")[0] == sub), sub)
            for part in sub.split("-")[1:]:
                self.expect("-")
                self.expect("ident", part)
            if sub not in subs:
                expected = " or ".join(map(repr, subs)) if len(subs) == 2 else f"a {head} operation"
                raise ParseError(tok.line, tok.col, expected, sub)
        payload = {"kind": head if sub is None else f"{head}.{sub}"}
        for arg in subs[sub]:
            if arg == "scheme":
                payload[arg] = self.keyword()
            elif arg == "r":
                payload[arg] = int(self.expect("int").value)
            elif arg == "expr":
                payload[arg] = self.parse_expr()
            elif arg == "vector":
                payload[arg] = self.parse_vector()
            else:
                payload.setdefault("vectors", []).append(self.parse_vector())
        payload["flags"] = self.parse_flags()
        self.expect(";")
        return ("cmd", payload)

    def parse_vector(self):
        self.expect("(")
        entries = [self.parse_expr()]
        while self.accept(","):
            entries.append(self.parse_expr())
        self.expect(")")
        return entries

    def parse_flags(self):
        flags = {}
        while self.peek().kind == "flag":
            name = self.next().value[2:]
            tok = self.peek()
            if tok.kind == "int":
                flags[name] = int(self.next().value)
            elif tok.kind == "ident":
                flags[name] = self.next().value
            elif tok.kind == "string":
                flags[name] = self.next().value[1:-1]
            else:
                raise ParseError(tok.line, tok.col, "a flag value", tok.value)
        return flags

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while True:
            if self.accept("+"):
                node = ("bin", "+", node, self.parse_term())
            elif self.accept("-"):
                node = ("bin", "-", node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.accept("*"):
                node = ("bin", "*", node, self.parse_factor())
            elif self.accept("/"):
                node = ("bin", "/", node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        if self.accept("-"):
            return ("neg", self.parse_factor())
        node = self.parse_atom()
        if self.accept("^"):
            exp = int(self.expect("int").value)
            node = ("pow", node, exp)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ("int", int(tok.value))
        if tok.kind == "ident":
            name = self.next().value
            if self.peek().kind == "(":
                self.next()
                args = [self.parse_expr()]
                while self.accept(","):
                    args.append(self.parse_expr())
                self.expect(")")
                return ("call", name, args)
            return ("name", name)
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(tok.line, tok.col, "an expression", tok.value or "end of input")


def parse(text):
    """Parse a script into its statement list; raises its first ParseError."""
    statements = Parser(text).parse_script()
    for kind, payload in statements:
        if kind == "parse":
            raise payload
    return statements
