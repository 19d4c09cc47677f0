import itertools
import json
import os
import pathlib
import random
import re

import pytest

from funcon import (
    ClosureReport,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    Scheme,
    csf,
    csf_m,
    fsc,
    fsc_n,
    random_function_class,
)
from funcon.core import constraint_universe_count, function_count, tuple_rank
import funcon.cache
from funcon.cache import ResultCache, cache_key, resolve_cache_dir
from funcon.instance_io import (
    InstanceParseError,
    InstanceSemanticError,
    class_listing,
    format_report,
    parse_instance,
    parse_scheme_literal,
    scheme_literal,
    serialize_instance,
    set_listing,
)

from conftest import AND, cls, cset, C_LEQ

DOC = """{
  "domains": {"bool": 2},
  "functions": {"and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]}},
  "relations": {"leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
  "constraints": {"c_leq": {"antecedent": "leq", "consequent": "leq"}},
  "classes": {"K2": {"dom": "bool", "cod": "bool", "members": ["and"]}},
  "sets": {"T2": {"dom": "bool", "cod": "bool", "members": ["c_leq"]}},
  "schemes": {"swap": "target=2; V=0; h1=[c2,c1]"}
}"""


def test_parse_instance_bindings():
    doc = parse_instance(DOC)
    assert doc.lookup("functions", "and") == AND
    assert sorted(doc.lookup("relations", "leq").tuples()) == [(0, 0), (0, 1), (1, 1)]
    assert doc.lookup("constraints", "c_leq") == C_LEQ
    assert doc.lookup("classes", "K2") == cls(AND)
    assert doc.lookup("sets", "T2") == cset(C_LEQ)
    assert doc.lookup("schemes", "swap").maps == ((1, 0),)


def test_parse_syntax_error_has_position():
    with pytest.raises(InstanceParseError) as exc:
        parse_instance("{ not json")
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_semantic_errors_name_the_binding():
    bad_table = json.loads(DOC)
    bad_table["functions"]["and"]["table"] = [0, 0, 0]
    with pytest.raises(InstanceSemanticError, match="function 'and'.*expected 4 entries"):
        parse_instance(json.dumps(bad_table))

    dangling = json.loads(DOC)
    dangling["constraints"]["c_leq"]["antecedent"] = "nope"
    with pytest.raises(InstanceSemanticError, match="relation 'nope'"):
        parse_instance(json.dumps(dangling))

    out_of_range = json.loads(DOC)
    out_of_range["relations"]["leq"]["tuples"] = [[0, 2]]
    with pytest.raises(InstanceSemanticError, match="relation 'leq'.*out of range"):
        parse_instance(json.dumps(out_of_range))

    mixed = json.loads(DOC)
    mixed["relations"]["r1"] = {"domain": "bool", "arity": 1, "tuples": [[0]]}
    mixed["constraints"]["bad"] = {"antecedent": "leq", "consequent": "r1"}
    with pytest.raises(InstanceSemanticError, match="constraint 'bad'.*arity"):
        parse_instance(json.dumps(mixed))


def test_serialize_parse_roundtrip_is_canonicalization():
    doc = parse_instance(DOC)
    canonical = serialize_instance(doc)
    again = serialize_instance(parse_instance(canonical))
    assert canonical == again  # idempotent
    # parse of the canonical form reproduces the same bindings
    doc2 = parse_instance(canonical)
    assert doc2.lookup("classes", "K2") == doc.lookup("classes", "K2")
    assert doc2.lookup("sets", "T2") == doc.lookup("sets", "T2")


# unsorted names, sections and spec keys, duplicate and unsorted tuples and
# members, and a scheme literal with extra spaces
MESSY = """{
  "schemes": {"comp": "target=2;V=1;  h1=[c1, v1] ; h2=[v1,c2]"},
  "sets": {"T": {"members": ["c_one", "c_leq", "c_one"], "cod": "bool", "dom": "bool"}},
  "classes": {"K": {"cod": "bool", "members": ["neg", "id", "neg"], "dom": "bool"}},
  "constraints": {"c_one": {"consequent": "one", "antecedent": "one"},
                  "c_leq": {"antecedent": "leq", "consequent": "leq"}},
  "relations": {
    "one": {"tuples": [[1], [1]], "domain": "bool", "arity": 1},
    "leq": {"arity": 2, "tuples": [[1, 1], [0, 1], [0, 0], [0, 1]], "domain": "bool"}
  },
  "functions": {
    "neg": {"table": [1, 0], "arity": 1, "cod": "bool", "dom": "bool"},
    "id": {"dom": "bool", "cod": "bool", "arity": 1, "table": [0, 1]}
  },
  "domains": {"bool": 2}
}"""


def test_serialize_pins_the_canonical_text():
    expected = {
        "domains": {"bool": 2},
        "functions": {
            "id": {"dom": "bool", "cod": "bool", "arity": 1, "table": [0, 1]},
            "neg": {"dom": "bool", "cod": "bool", "arity": 1, "table": [1, 0]},
        },
        "relations": {
            "leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]},
            "one": {"domain": "bool", "arity": 1, "tuples": [[1]]},
        },
        "constraints": {
            "c_leq": {"antecedent": "leq", "consequent": "leq"},
            "c_one": {"antecedent": "one", "consequent": "one"},
        },
        "classes": {"K": {"dom": "bool", "cod": "bool", "members": ["id", "neg"]}},
        "sets": {"T": {"dom": "bool", "cod": "bool", "members": ["c_leq", "c_one"]}},
        "schemes": {"comp": "target=2; V=1; h1=[c1,v1]; h2=[v1,c2]"},
    }
    text = serialize_instance(parse_instance(MESSY))
    assert text == json.dumps(expected, indent=2) + "\n"
    assert text.startswith('{\n  "domains": {\n    "bool": 2\n  },\n  "functions": {\n    "id": {\n')
    assert serialize_instance(parse_instance(text)) == text


def test_duplicate_members_serialize_like_deduplicated_ones():
    deduplicated = MESSY.replace('"c_one", "c_leq", "c_one"', '"c_one", "c_leq"').replace(
        '"neg", "id", "neg"', '"neg", "id"'
    )
    assert deduplicated != MESSY
    docs = [parse_instance(MESSY), parse_instance(deduplicated)]
    text = serialize_instance(docs[0])
    assert serialize_instance(docs[1]) == text
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again.lookup("classes", "K") == docs[0].lookup("classes", "K") == docs[1].lookup("classes", "K")
    assert again.lookup("sets", "T") == docs[0].lookup("sets", "T") == docs[1].lookup("sets", "T")


def test_documents_are_shared_and_read_only():
    doc = parse_instance(DOC)
    assert parse_instance(DOC) is doc
    spec = doc.specs["functions"]["and"]
    assignments = [
        (doc.bindings, "functions", {}),
        (doc.bindings["functions"], "or", doc.lookup("functions", "and")),
        (doc.specs["functions"], "and", {}),
        (spec, "table", [1, 1, 1, 1]),
        (spec["table"], 0, 1),
        (doc.specs["relations"]["leq"]["tuples"][0], 0, 1),
    ]
    for target, key, value in assignments:
        with pytest.raises(TypeError):
            target[key] = value
    with pytest.raises(AttributeError):
        doc.bindings = {}
    assert spec["table"] == (0, 0, 0, 1)
    assert serialize_instance(doc) == serialize_instance(parse_instance(serialize_instance(doc)))


@pytest.mark.parametrize(
    "text, error",
    [("{ not json", InstanceParseError), (DOC.replace('"arity": 2, "table"', '"arity": 3, "table"'), InstanceSemanticError)],
    ids=["syntax", "semantic"],
)
def test_a_failing_text_raises_on_every_parse(text, error):
    messages = []
    for _ in range(3):
        with pytest.raises(error) as exc:
            parse_instance(text)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1


def mutated(*changes):
    raw = json.loads(DOC)
    for change in changes:
        change(raw)
    return json.dumps(raw)


def _set(*path_and_value):
    *path, value = path_and_value

    def change(raw):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value

    return change


# one JSON boolean where an integer belongs; Python counts booleans as integers
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("domains", "bool"), True, "domain 'bool': size must be a positive integer, got True"),
        (("functions", "and", "arity"), True, "function 'and': arity must be a positive integer"),
        (
            ("functions", "and", "table"),
            [False, False, False, True],
            "function 'and': table value False out of range 0..1",
        ),
        (("relations", "leq", "arity"), True, "relation 'leq': arity must be a positive integer"),
        (("relations", "leq", "tuples"), [[0, 0], [False, True]], "relation 'leq': element False out of range 0..1"),
    ],
    ids=["size", "function-arity", "table", "relation-arity", "element"],
)
def test_json_booleans_are_not_integers(path, value, message):
    with pytest.raises(InstanceSemanticError, match=re.escape(message)):
        parse_instance(mutated(_set(*path, value)))


# bindings over a second domain, for members over the wrong domains
TRI = (
    _set("domains", "tri", 3),
    _set("functions", "t", {"dom": "tri", "cod": "bool", "arity": 1, "table": [0, 1, 1]}),
    _set("relations", "r3", {"domain": "tri", "arity": 1, "tuples": [[2]]}),
    _set("constraints", "c3", {"antecedent": "r3", "consequent": "r3"}),
)


@pytest.mark.parametrize(
    "text, error, message",
    [
        (mutated(_set("domain", {})), InstanceSemanticError, "document: unknown sections ['domain']"),
        ("[]", InstanceParseError, "document root must be a JSON object"),
        (mutated(_set("functions", "1and", {})), InstanceSemanticError, "functions: invalid binding name '1and'"),
        (
            mutated(_set("functions", "and", "tabel", [])),
            InstanceSemanticError,
            "function 'and': unknown keys ['tabel']",
        ),
        (
            mutated(lambda raw: raw["relations"]["leq"].pop("tuples")),
            InstanceSemanticError,
            "relation 'leq': missing 'tuples'",
        ),
        (
            mutated(*TRI, _set("classes", "K2", "members", ["and", "t"])),
            InstanceSemanticError,
            "class 'K2': member 't' is over 'tri'->'bool', class is over 'bool'->'bool'",
        ),
        (
            mutated(*TRI, _set("sets", "T2", "members", ["c_leq", "c3"])),
            InstanceSemanticError,
            "set 'T2': member 'c3' is over 'tri'-to-'tri', set is over 'bool'-to-'bool'",
        ),
        (
            mutated(_set("schemes", "swap", ["c2", "c1"])),
            InstanceSemanticError,
            "scheme 'swap': scheme literal must be a string",
        ),
        (
            mutated(_set("functions", "and", "dom", ["bool"])),
            InstanceSemanticError,
            "domain reference ['bool'] must be a name",
        ),
        (
            mutated(_set("classes", "K2", "members", [["and"]])),
            InstanceSemanticError,
            "function reference ['and'] must be a name",
        ),
        (
            mutated(_set("functions", "and", "dom", "nope")),
            InstanceSemanticError,
            "function 'and': domain 'nope' is not defined",
        ),
        (
            mutated(_set("constraints", "c_leq", "consequent", "nope")),
            InstanceSemanticError,
            "constraint 'c_leq': relation 'nope' is not defined",
        ),
        (
            mutated(_set("classes", "K2", "members", ["and", "nope"])),
            InstanceSemanticError,
            "class 'K2': function 'nope' is not defined",
        ),
    ],
    ids=[
        "section", "root", "name", "unknown-key", "missing-key", "class-member", "set-member", "scheme",
        "domain-reference", "member-reference", "undefined-domain", "undefined-relation", "undefined-member",
    ],
)
def test_each_document_check_names_the_binding(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_instance(text)


def test_scheme_literal_roundtrip():
    s = Scheme(2, 1, ((0, 2), (2, 1)))
    text = scheme_literal(s)
    assert text == "target=2; V=1; h1=[c1,v1]; h2=[v1,c2]"
    assert parse_scheme_literal(text) == s


def test_scheme_literal_errors():
    with pytest.raises(InstanceSemanticError, match="missing 'target'"):
        parse_scheme_literal("V=1; h1=[v1]")
    with pytest.raises(InstanceSemanticError, match="out of range"):
        parse_scheme_literal("target=1; V=0; h1=[c2]")
    with pytest.raises(InstanceSemanticError, match="h1"):
        parse_scheme_literal("target=1; V=0; h2=[c1]")


def test_listings_are_sorted_and_stable():
    k = cls(AND)
    a = class_listing(k)
    b = class_listing(cls(AND))
    assert a == b
    assert json.loads(a)["count"] == 1
    s = set_listing(cset(C_LEQ))
    assert json.loads(s)["members"][0]["antecedent"] == [[0, 0], [0, 1], [1, 1]]


def reference_listing(kind: str, collection) -> str:
    """The scalar reference of ``class_listing``/``set_listing``: decode every
    member and write one dict record per member with ``json.dumps``."""
    def tuples(r):
        return [list(t) for t in itertools.product(range(r.domain.size), repeat=r.arity) if r.bits >> tuple_rank(t, r.domain.size) & 1]

    if kind == "class":
        records = [{"arity": f.arity, "table": list(f.table)} for f in collection.tables()]
    else:
        records = [
            {"arity": c.arity, "antecedent": tuples(c.antecedent), "consequent": tuples(c.consequent)}
            for c in collection.constraints()
        ]
    return json.dumps({"kind": kind, "count": len(records), "members": records}, indent=2) + "\n"


def listings_of(dom, cod, rng):
    """Random classes over dom -> cod with the csf_m and csf results of each
    and the fsc_n and fsc classes of those, as (kind, collection) pairs."""
    yield "class", FunctionClass.empty(dom, cod)
    yield "set", ConstraintSet.empty(dom, cod)
    for n in (1, 2, 3):
        if function_count(dom, cod, n) > 1 << 16:
            continue
        k = random_function_class(rng, dom, cod, n, rng.randint(1, 3))
        yield "class", k
        for m in (1, 2, 3):
            if constraint_universe_count(dom, cod, m) <= 1 << 16:
                t = csf_m(k, m)
                yield "set", t
                yield "class", fsc_n(t, n)
        t = csf(k, 2)  # arities 1 and 2
        yield "set", t
        yield "class", fsc(t, 2)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=lambda s: "x".join(map(str, s)))
def test_listings_match_the_scalar_reference(sizes):
    rng = random.Random(sum(sizes))
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    seen = set()
    for kind, collection in listings_of(dom, cod, rng):
        listing = class_listing(collection) if kind == "class" else set_listing(collection)
        assert listing == reference_listing(kind, collection)
        seen.add((kind, len(collection.arities())))
    assert {("class", 0), ("set", 0), ("class", 1), ("set", 1), ("set", 2), ("class", 2)} <= seen


def test_format_report_excludes_runtime_by_default():
    rep = ClosureReport("t15i", {"n": 2, "m": 1}, 4, 4, [], "equal")
    lines = format_report(rep).splitlines()
    assert "  verdict: equal" in lines
    assert not [line for line in lines if "runtime" in line]


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key("close", "inputs")
    assert cache.load(key) is None
    cache.store(key, "payload\n")
    assert cache.load(key) == "payload\n"


def _entry(directory, key):
    """An entry's header line, decoded, and its body bytes."""
    header, body = (directory / f"{key}.entry").read_bytes().split(b"\n", 1)
    return json.loads(header), body


def test_entry_is_a_header_line_then_the_listing_bytes(tmp_path, capsys):
    # no escaping on store and none on a hit: quotes, backslashes, newlines and a lone surrogate come back as stored
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    value = 'a "quoted" \\ back\\slash\n\n{"members": ["\\u00e9"]}\r\n\té\udcff\n'
    cache.store(key, value)
    header, body = _entry(tmp_path, key)
    assert header == {"key": key, "tool_version": funcon.__version__}
    assert body == value.encode("utf-8", "surrogatepass")
    assert cache.load(key) == value
    assert capsys.readouterr().err == ""


def test_entry_of_the_json_layout_is_a_silent_miss(tmp_path, capsys):
    # an entry as the one-object JSON layout wrote it, under its own name, is never opened
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    old = tmp_path / f"{key}.json"
    old.write_text(json.dumps({"key": key, "value": "value", "tool_version": funcon.__version__}))
    assert cache.load(key) is None
    assert capsys.readouterr().err == ""
    cache.store(key, "value")
    assert cache.load(key) == "value"
    assert sorted(os.listdir(tmp_path)) == [f"{key}.entry", f"{key}.json"]


def test_cache_rejects_corrupt_and_stale(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    cache.store(key, "value")
    path = tmp_path / f"{key}.entry"
    # a header that is not JSON, and a whole header with no line end, as if the body were cut off
    whole = json.dumps({"key": key, "tool_version": funcon.__version__}).encode()
    for corrupt in (b"{broken\nvalue", whole):
        path.write_bytes(corrupt)
        assert cache.load(key) is None
        assert "corrupt cache entry" in capsys.readouterr().err
    # stale tool version, and another key's entry: silent misses
    for field, other in (("tool_version", "0.0.0"), ("key", cache_key("op", "y"))):
        cache.store(key, "value")
        header, body = _entry(tmp_path, key)
        path.write_bytes(json.dumps({**header, field: other}).encode() + b"\n" + body)
        assert cache.load(key) is None
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field", ["key", "value", "tool_version"])
def test_cache_rejects_entries_with_non_string_fields(tmp_path, capsys, field):
    # a header field that is not a string, or (value) a body that is not UTF-8
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    cache.store(key, "value")
    path = tmp_path / f"{key}.entry"
    header, body = _entry(tmp_path, key)
    if field == "value":
        body = b"\xffvalue"
    else:
        header[field] = 5
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    assert cache.load(key) is None
    assert "corrupt cache entry" in capsys.readouterr().err
    cache.store(key, "value")  # a recomputed result overwrites the entry
    assert cache.load(key) == "value"


def test_cache_key_frames_the_operation():
    keys = [cache_key("ab", "c"), cache_key("a", "bc"), cache_key("a", "b\nc"), cache_key("close", "\udcff")]
    assert len(set(keys)) == len(keys)  # an argv byte that is not UTF-8 reaches the key as a lone surrogate
    assert all(re.fullmatch("[0-9a-f]{64}", key) for key in keys)


def test_missing_entry_is_a_silent_miss(tmp_path, capsys):
    key = cache_key("op", "x")
    assert ResultCache(tmp_path).load(key) is None
    assert ResultCache(tmp_path / "absent").load(key) is None
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    assert ResultCache(blocker).load(key) is None  # no directory, so no entry
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_entry_removed_after_its_store_is_a_silent_miss(tmp_path, capsys, monkeypatch):
    # the cache is shared: another process may clear the directory between a store and a load
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    cache.store(key, "value")
    (tmp_path / f"{key}.entry").unlink()
    assert cache.load(key) is None
    # the same when the entry goes after any existence check a load might make
    monkeypatch.setattr(pathlib.Path, "exists", lambda self, **kwargs: True)
    monkeypatch.setattr(os.path, "exists", lambda path: True)
    assert cache.load(key) is None
    assert capsys.readouterr().err == ""


def test_directory_at_the_entry_path_is_corrupt(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    (tmp_path / f"{key}.entry").mkdir()
    assert cache.load(key) is None
    assert "corrupt cache entry" in capsys.readouterr().err


def test_store_creates_a_missing_nested_directory(tmp_path, capsys):
    directory = tmp_path / "a" / "b"
    cache = ResultCache(directory)
    key = cache_key("op", "x")
    cache.store(key, "payload\n")
    assert cache.load(key) == "payload\n"
    assert os.listdir(directory) == [f"{key}.entry"]
    assert capsys.readouterr().err == ""


def test_each_store_adds_one_entry_and_a_hit_adds_none(tmp_path):
    cache = ResultCache(tmp_path)
    expected = set()
    for i in range(5):
        key = cache_key("op", str(i))
        cache.store(key, f"value {i}")
        expected.add(f"{key}.entry")
        assert set(os.listdir(tmp_path)) == expected
        assert cache.load(key) == f"value {i}"
        cache.store(key, f"value {i}")  # a second store replaces the entry
        assert set(os.listdir(tmp_path)) == expected


def test_taken_temp_name_neither_corrupts_the_entry_nor_leaves_a_temp_file(tmp_path, capsys, monkeypatch):
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    cache.store(key, "old")
    monkeypatch.setattr(funcon.cache, "_temp_serials", itertools.repeat(0))
    squatter = tmp_path / f"{key}.{os.getpid()}.0.tmp"
    squatter.write_text("not ours")
    cache.store(key, "new")
    assert "warning: result not cached" in capsys.readouterr().err
    assert cache.load(key) == "old"
    assert squatter.read_text() == "not ours"  # another store's temp file is left alone
    assert sorted(tmp_path.glob("*.tmp")) == [squatter]


class _ShortWrites:
    """The os module, but each os.write writes at most 7 bytes, and the write
    numbered ``fail_at`` (counting from 0) fails as a full disk would."""

    def __init__(self, fail_at=None):
        self.writes, self.fail_at = 0, fail_at

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        self.writes += 1
        return os.write(fd, data[:7])


def test_store_writes_every_byte_through_short_writes(tmp_path, capsys, monkeypatch):
    cache = ResultCache(tmp_path)
    key = cache_key("op", "x")
    short = _ShortWrites()
    monkeypatch.setattr(funcon.cache, "os", short)
    cache.store(key, "payload " * 10)
    assert short.writes > 10
    assert cache.load(key) == "payload " * 10
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(funcon.cache, "os", _ShortWrites(fail_at=3))
    cache.store(key, "a longer payload " * 10)
    assert "warning: result not cached" in capsys.readouterr().err
    assert cache.load(key) == "payload " * 10  # the truncated entry is never renamed into place
    assert os.listdir(tmp_path) == [f"{key}.entry"]


def test_cache_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("FUNCON_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    monkeypatch.setenv("FUNCON_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    # the flag wins over the environment
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
