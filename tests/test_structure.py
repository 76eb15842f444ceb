"""Each decision lives in one place, checked on the source: the command
line reads every integer through one function and maps invalid input to
exit 2 through one exception type, the domain table defines one exception,
the oracle takes its prediction from contact through one function and names
no stratum field, one function reads a chain's pair index, and every value
type but the chain is a named tuple."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "contactloci"


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_the_command_line_has_one_integer_reader():
    types = [keyword.value for node in ast.walk(tree("cli")) if isinstance(node, ast.Call)
             for keyword in node.keywords if keyword.arg == "type"]
    assert types and all(isinstance(value, ast.Name) and value.id == "integer"
                         for value in types)


def test_main_maps_two_exception_types():
    main = next(node for node in tree("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main) if isinstance(node, ast.Try)
              for handler in node.handlers]
    assert caught == ["SystemExit", "BudgetExceededError", "ValueError"]


def test_the_domain_table_defines_one_exception():
    def is_exception(base):
        builtin = getattr(builtins, getattr(base, "id", ""), None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    errors = [node.name for node in tree("domain").body
              if isinstance(node, ast.ClassDef) and any(map(is_exception, node.bases))]
    assert errors == ["BudgetExceededError"]


def test_the_oracle_takes_only_the_prediction_from_contact():
    oracle = tree("oracle")
    imported = [alias.name for node in ast.walk(oracle)
                if isinstance(node, ast.ImportFrom) and node.module == "contact"
                for alias in node.names]
    assert imported == ["order_counts"]
    names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    assert not names & {"graded_pieces", "base_kind", "fiber_dim", "BASE_MILNOR_FIBER"}


def test_one_function_reads_the_pair_index():
    # a chain is the tuple (n, d, m, rows, tables): a subscript of a chain
    # reads the pair tables when it is item 4 or a slice that holds item 4,
    # and any subscript that is not a literal counts as a read
    def reads_index(node):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("chain", "self")):
            return False
        index = node.slice
        try:
            if isinstance(index, ast.Slice):
                bounds = (index.lower, index.upper, index.step)
                return 4 in range(5)[slice(*(b and ast.literal_eval(b) for b in bounds))]
            return range(5)[ast.literal_eval(index)] == 4
        except ValueError:
            return True

    readers = [node.name for node in ast.walk(tree("resolution"))
               if isinstance(node, ast.FunctionDef) and any(map(reads_index, ast.walk(node)))]
    assert readers == ["nef_fiber_identity"]


def test_only_the_chain_is_a_hand_written_tuple():
    # every other value type has a named-tuple base, whose field readers are
    # the named tuple's own; the chain iterates its divisors, not its fields
    def is_reader(node):
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "property"
                and bool(node.args) and isinstance(node.args[0], ast.Call)
                and ast.unparse(node.args[0].func) in ("itemgetter", "operator.itemgetter"))

    tuples, readers = [], []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in ast.walk(module) if isinstance(node, ast.ClassDef)]
        tuples += [cls.name for cls in classes if "tuple" in map(ast.unparse, cls.bases)]
        chain = {id(node) for cls in classes if cls.name == "ResolutionChain"
                 for node in ast.walk(cls)}
        readers += [path.stem for node in ast.walk(module)
                    if is_reader(node) and id(node) not in chain]
    assert tuples == ["ResolutionChain"] and not readers
