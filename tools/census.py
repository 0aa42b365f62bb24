"""Reachability census: which functions under ``src/`` does nothing run?

Runs the tier-1 suite (``pytest`` inside this process) and ``repro sim
--seeds N`` with a profile hook (``sys.setprofile`` +
``threading.setprofile``) that records every Python function entered,
then prints each function defined under ``src/`` that no run reached.
A function nested in an unreached one is not listed again: its lines are
counted with its parent's.

Python processes the tests start are counted too, through a hook every
interpreter imports at startup: ``usercustomize`` in a scratch
``PYTHONUSERBASE`` (which reaches children that replace their
``PYTHONPATH``, as the server tests do) and ``sitecustomize`` on
``PYTHONPATH`` (for a virtual environment, which has no user site).
Some children leave through ``os._exit`` (crash points, killed servers),
so the hook writes what it has seen every quarter second, not only at
exit; a child that dies sooner than that is not counted.

With ``--e2e`` it also runs ``pytest benchmarks/e2e`` and the
end-to-end benchmark's smoke run over every workload, each in its own
interpreter; the benchmark's server child replaces ``PYTHONPATH``, so only
the user-site hook counts it.

Advisory: it prints its list and exits 0 whatever the runs did.  Stdlib
only; from the repository root::

    python tools/census.py                                # tier-1 + 20 sim seeds
    python tools/census.py --e2e                          # ... + the e2e smoke
    python tools/census.py --sim-seeds 0 -- tests/test_cli.py -k csv  # a slice
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where a child process's hook writes the functions it entered.
OUT_ENV = "CENSUS_OUT"

_HOOK = '''\
import os, sys, threading

def _census():
    out = os.environ.get("CENSUS_OUT")
    if not out or getattr(sys, "_census_armed", False):
        return  # off, or armed already by the other startup hook
    sys._census_armed = True
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        codes = list(seen)
        lines = {f"{c.co_filename}\\t{c.co_firstlineno}" for c in codes}
        path = os.path.join(out, f"{os.getpid()}.txt")
        with open(path + ".tmp", "w") as handle:
            handle.write(f"{os.getcwd()}\\n" + "\\n".join(lines))
        os.replace(path + ".tmp", path)

    def writer():
        import time
        while True:
            time.sleep(0.25)
            dump()

    import atexit
    atexit.register(dump)
    threading.Thread(target=writer, daemon=True).start()
    sys.setprofile(profile)
    threading.setprofile(profile)

_census()
'''


def defined_functions(path: pathlib.Path):
    """``(first line, last line, qualified name, parent's first line)`` of
    every ``def`` in ``path``; the first line is the first decorator's, as
    in the function's code object."""
    out = []

    def visit(node, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}{child.name}"
                out.append((first, child.end_lineno, name, parent))
                visit(child, f"{name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def run_everything(pytest_args: list[str], sim_seeds: int, e2e: bool) -> set:
    """``(real path, first line)`` of every function tier-1, the simulator
    and (``e2e``) the end-to-end smoke entered: in this process, and in
    children through the hook."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = os.path.join(scratch, "hook")
        user_base = os.path.join(scratch, "user")
        user_site = sysconfig.get_path(
            "purelib", sysconfig.get_preferred_scheme("user"), vars={"userbase": user_base}
        )
        out_dir = os.path.join(scratch, "out")
        for directory, module in ((hook_dir, "sitecustomize"), (user_site, "usercustomize")):
            os.makedirs(directory)
            with open(os.path.join(directory, f"{module}.py"), "w") as handle:
                handle.write(_HOOK)
        os.makedirs(out_dir)
        os.environ[OUT_ENV] = out_dir
        os.environ["PYTHONUSERBASE"] = user_base
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [hook_dir, str(SRC), os.environ.get("PYTHONPATH")])
        )
        sys.path.insert(0, str(SRC))
        os.chdir(ROOT)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            import pytest

            pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
            if sim_seeds:
                from repro.cli import main

                main(["sim", "--seeds", str(sim_seeds)])
            if e2e:
                for command in (
                    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/e2e"],
                    ["-m", "benchmarks.e2e", "--smoke"],  # every workload
                ):
                    subprocess.run([sys.executable, *command], cwd=ROOT)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        entered = {(str(ROOT), code.co_filename, code.co_firstlineno) for code in seen}
        for name in os.listdir(out_dir):
            if not name.endswith(".txt"):
                continue
            with open(os.path.join(out_dir, name)) as handle:
                cwd, *lines = handle.read().splitlines()
            for line in lines:
                filename, lineno = line.rsplit("\t", 1)
                entered.add((cwd, filename, int(lineno)))
    resolved: dict = {}
    for cwd, filename, _ in entered:
        if (cwd, filename) not in resolved:
            resolved[cwd, filename] = os.path.realpath(os.path.join(cwd, filename))
    return {(resolved[cwd, filename], lineno) for cwd, filename, lineno in entered}


def report(reached: set) -> None:
    functions = lines = missed = missed_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        unreached_defs: set = set()
        for first, last, name, parent in defined_functions(path):
            functions += 1
            if parent is None:
                lines += last - first + 1
            if (str(path), first) in reached:
                continue
            unreached_defs.add(first)
            if parent in unreached_defs:
                continue  # counted with the enclosing function
            missed += 1
            missed_lines += last - first + 1
            print(f"{path.relative_to(ROOT)}:{first}  {name}  ({last - first + 1} lines)")
    print(
        f"census: {missed} of {functions} functions under src/ unreached "
        f"({missed_lines} of {lines} lines)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sim-seeds", type=int, default=20, help="repro sim --seeds N (0: skip)")
    parser.add_argument(
        "--e2e", action="store_true",
        help="also run pytest benchmarks/e2e and python -m benchmarks.e2e --smoke",
    )
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest (default: tier-1)")
    args = parser.parse_args(argv)
    report(run_everything(args.pytest_args, args.sim_seeds, args.e2e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
