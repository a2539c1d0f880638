#!/usr/bin/env python3
"""Reachability audit: which functions of ``src/repro`` does no driver run?

Copies the checkout to a temporary directory (the bench suites rewrite
``BENCH_*.json``), runs every driver there under a ``sys.setprofile`` hook
that a ``sitecustomize`` on ``PYTHONPATH`` installs, walks ``src/repro``
with ``ast`` and prints each function no driver called as
``path.py:qualname  # reason``, ``__repr__``s excluded, the reason taken
from ``.github/reachability_keep.txt``.  CI diffs the output against that
file: a function only its unit test calls cannot arrive unnoticed, and a
kept one that gains a driver (or is deleted) has to leave the list.

The hook appends ``file:line`` to one ``O_APPEND`` file the first time it
sees a code object; forked pool workers inherit the
descriptor and the seen-set, spawned interpreters reopen the file, so
workers that leave through ``os._exit`` are covered without an exit hook.

``pytest benchmarks`` under-reports: ``pytest-benchmark`` suspends
profilers inside ``benchmark()``, so what only a ``benchmark(...)`` body
calls (``bench.micro.extension_install_cost``) stays on the keep list.

A second, static pass lists write-only state: each attribute name that
``src/repro`` stores (an ``x.name = ...`` or ``x.name += ...`` target)
and that no code under ``src``, ``tests``, ``benchmarks``, ``perfbench``
or ``examples`` reads (an ``x.name`` load, or ``"name"`` as a string
constant outside a ``__slots__``), dunders skipped, as
``path.py:Class.name`` after the functions, from the same keep file.
Names are matched without their objects, so a read of any ``.name``
keeps every store of it.
"""

import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
KEEP = os.path.join(ROOT, ".github", "reachability_keep.txt")

HOOK = '''
import os, sys, threading
_prefix = os.path.join(os.environ["REACH_TREE"], "src", "repro", "")
_out = os.open(os.environ["REACH_OUT"], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_seen = {}
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and id(code) not in _seen:
        _seen[id(code)] = code      # held, so the id is never reused
        if code.co_filename.startswith(_prefix):
            os.write(_out, ("%s:%d\\n" % (code.co_filename[len(_prefix):],
                                         code.co_firstlineno)).encode())
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

READERS = ("src", "tests", "benchmarks", "perfbench", "examples")

PY = [sys.executable]
BENCH = PY + ["-m", "repro.bench"]
DRIVERS = [
    BENCH, BENCH + ["--check"],
    BENCH + ["--latency"],
    PY + ["-m", "repro.chaos", "--quick"],
    PY + ["-m", "repro.obs", "--check-schema"],
    PY + ["-m", "repro.obs", "--workload", "udp_pingpong", "--folded",
          "reach.folded", "--metrics", "reach.metrics.json", "--spans",
          "reach.spans.txt"],
    PY + ["-m", "repro.obs", "--workload", "tcp_bulk", "--require",
          "checksum,dispatch,copy,device-io,compiled-path"],
    PY + ["perfbench/run.py"],
    PY + ["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"],
] + [PY + [path] for path in sorted(
    os.path.relpath(path, ROOT)
    for path in glob.glob(os.path.join(ROOT, "examples", "*.py")))]


def functions(tree):
    """Yield ``(first_line, qualname)`` for every ``def`` under ``tree``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                yield first, prefix + child.name
                yield from walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def stores(tree):
    """Yield ``(qualname, name)`` for each attribute store under ``tree``,
    qualified by the class around it (bare ``name`` outside a class)."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
                continue
            if isinstance(child, ast.Attribute) and isinstance(
                    child.ctx, ast.Store):
                yield prefix + child.attr, child.attr
            yield from walk(child, prefix)
    return walk(tree, "")


def loads(tree):
    """Every attribute name ``tree`` may read: each ``x.name`` load, and
    each string constant outside a ``__slots__`` (``getattr`` names,
    ``Layout`` fields a ``VIEW`` reads, a table's match field)."""
    slots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            slots.update(map(id, ast.walk(node.value)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots):
            names.add(node.value)
    return names


def write_only(root):
    """``path.py:Class.name`` for each attribute ``src/repro`` under
    ``root`` stores and nothing under :data:`READERS` reads."""
    read = set()
    for top in READERS:
        for path in glob.glob(os.path.join(root, top, "**", "*.py"),
                              recursive=True):
            with open(path) as handle:
                read |= loads(ast.parse(handle.read()))
    package = os.path.join(root, "src", "repro")
    found = {}
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"),
                                 recursive=True)):
        relative = os.path.relpath(path, package)
        with open(path) as handle:
            module = ast.parse(handle.read())
        for qualname, name in stores(module):
            if name not in read and not name.startswith("__"):
                found["%s:%s" % (relative, qualname)] = None
    return list(found)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        site = os.path.join(tmp, "site")
        os.mkdir(site)
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        reached_path = os.path.join(tmp, "reached.txt")
        env = dict(os.environ, REACH_TREE=tree, REACH_OUT=reached_path,
                   PYTHONPATH=os.pathsep.join(
                       [site, os.path.join(tree, "src")]))
        for command in DRIVERS:
            done = subprocess.run(command, cwd=tree, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode:
                sys.stderr.write(done.stdout)
                sys.stderr.write("reachability: %r exited %d\n"
                                 % (command[1:], done.returncode))
                return 2
        with open(reached_path) as handle:
            reached = set(handle.read().split())
        # Parse the copy the drivers ran, not a checkout that may have
        # been edited since: line numbers are the join key.
        package = os.path.join(tree, "src", "repro")
        unreached = []
        for path in sorted(glob.glob(os.path.join(package, "**", "*.py"),
                                     recursive=True)):
            relative = os.path.relpath(path, package)
            with open(path) as handle:
                module = ast.parse(handle.read())
            unreached += [
                "%s:%s" % (relative, qualname)
                for first, qualname in functions(module)
                if "%s:%d" % (relative, first) not in reached
                and not qualname.endswith("__repr__")]
        unreached += write_only(tree)
    reasons = {}
    with open(KEEP) as handle:
        for line in handle:
            name, _, reason = line.rstrip("\n").partition("  # ")
            reasons[name] = reason
    for name in unreached:
        print("%s  # %s" % (name, reasons.get(name, "?")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
