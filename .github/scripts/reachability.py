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

PY = [sys.executable]
BENCH = PY + ["-m", "repro.bench"]
DRIVERS = [
    BENCH, BENCH + ["--charts"], BENCH + ["--check"],
    BENCH + ["--latency", "--jobs", "2"], BENCH + ["--parallel-curve"],
    PY + ["-m", "repro.chaos", "--quick", "--jobs", "2"],
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
