"""No function in src/deplin recurses: recursion on tree depth overflows
Python's stack on long sentences and deep random trees, so every walk keeps
an explicit stack.  Within each module, a call by bare name from one
top-level function to another is an edge, and the call graph must have no
cycle, a function calling itself included."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deplin"


def _call_graph(tree):
    """Each top-level function's name -> the top-level functions it calls by
    bare name anywhere in its body, nested functions included."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {name: {call.func.id for call in ast.walk(node)
                   if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id in funcs}
            for name, node in funcs.items()}


def _on_cycles(graph):
    """The names that can reach themselves."""
    cyclic = []
    for start in graph:
        seen = set()
        stack = list(graph[start])
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
        if start in seen:
            cyclic.append(start)
    return cyclic


def test_detects_mutual_and_self_recursion():
    source = ("def a(): return b()\n"
              "def b(): return a()\n"
              "def c(): return c()\n"
              "def d(): return a()\n")
    assert _on_cycles(_call_graph(ast.parse(source))) == ["a", "b", "c"]


def test_no_function_recurses():
    files = sorted(SRC.glob("*.py"))
    assert files
    recursive = [f"{path.name}: {name}"
                 for path in files
                 for name in _on_cycles(_call_graph(
                     ast.parse(path.read_text(encoding="utf-8"), str(path))))]
    assert recursive == []
