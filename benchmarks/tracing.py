"""Spans around the public functions of each dmparam layer, recorded from outside.

:class:`Tracer` replaces each traced function in every ``dmparam`` module
namespace that binds it (``ppt_check`` is bound in ``entanglement``, ``cli``,
``validate`` and the package itself), patches ``__init__`` /
``__post_init__`` of the two validated carrier classes, and wraps
``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` to count kernel calls.

A span is ``(name, start, end, parent, call id)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``call id`` the timed benchmark call
the span belongs to.  Spans are kept in flat arrays while the run lasts and
written out once, at its end.  Only spans that start inside a timed call are
recorded, so the benchmark's own checks never show up in them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every traced function; the span name is
#: ``<layer>.<attribute>`` with the ``dmparam.`` prefix dropped.
FUNCTIONS = (
    ("dmparam.blocks", "build_Vjnm"),
    ("dmparam.blocks", "build_Ajnm"),
    ("dmparam.blocks", "build_core"),
    ("dmparam.blocks", "assemble_rho_block"),
    ("dmparam.single", "build_Vjn"),
    ("dmparam.single", "assemble_rho_single"),
    ("dmparam.linalg", "expm_skew"),
    ("dmparam.linalg", "matfun_psd"),
    ("dmparam.linalg", "polar"),
    ("dmparam.linalg", "herm_eig"),
    ("dmparam.entanglement", "ppt_check"),
    ("dmparam.entanglement", "partial_transpose"),
    ("dmparam.entanglement", "circulant_ppt_margins"),
    ("dmparam.entanglement", "detect_structure"),
    ("dmparam.families", "pure_P"),
    ("dmparam.families", "isotropic"),
    ("dmparam.families", "isotropic_alpha"),
    ("dmparam.families", "circulant_rho"),
    ("dmparam.families", "bell_diagonal"),
    ("dmparam.families", "two_by_m"),
    ("dmparam.families", "toeplitz_state"),
    ("dmparam.families", "hankel_state"),
    ("dmparam.families", "class3_state"),
    ("dmparam.families", "nonabelian_bloch"),
    ("dmparam.families", "build_family"),
    ("dmparam.io", "load_param_file"),
    ("dmparam.io", "write_matrix"),
    ("dmparam.io", "read_matrix"),
    ("dmparam.cli", "cmd_generate"),
    ("dmparam.cli", "cmd_analyze"),
    ("dmparam.cli", "cmd_sweep"),
    ("dmparam.cli", "cmd_validate"),
    ("dmparam.validate", "run_validation"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "svd"),
)

#: (module, class, method): construction of the validated carriers.
METHODS = (
    ("dmparam.blocks", "BlockParams", "__post_init__"),
    ("dmparam.states", "DensityMatrix", "__init__"),
)

FAMILY_CONSTRUCTORS = tuple(
    f"families.{attr}" for mod, attr in FUNCTIONS if mod == "dmparam.families"
)

# build_Ajnm spans are named by path: an ``expm_skew`` span directly under
# ``blocks.build_Ajnm`` is the singular-angle fallback of method="auto"/"closed",
# one under ``blocks.build_Ajnm.exp`` was asked for explicitly.
_AJNM = "blocks.build_Ajnm"


def _span_name(module, attr):
    return module.replace("dmparam.", "", 1) + "." + attr


class Tracer:
    """Records spans of the traced functions while :attr:`active` is true."""

    def __init__(self):
        self.names = []
        self._code = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self.call_id = -1
        self.active = False
        self.bytes_written = 0
        self.reference_s = 0.0
        self._stack = [-1]

    # -- recording -----------------------------------------------------------

    def _name_code(self, name):
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def _wrap(self, fn, name, name_of=None):
        code = self._name_code(name)
        exp_code = self._name_code(_AJNM + ".exp") if name_of else None
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name_idx.append(exp_code if name_of and name_of(args, kwargs) else code)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.parent.append(tracer._stack[-1])
            tracer.call.append(tracer.call_id)
            tracer._stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every traced function in every namespace that binds it."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "dmparam" or key.startswith("dmparam."))
        ]
        for modname, attr in FUNCTIONS:
            owner = importlib.import_module(modname)
            fn = getattr(owner, attr)
            name = _span_name(modname, attr)
            if name == _AJNM:
                wrapped = self._wrap(fn, name, _asks_for_exp)
            elif name == "io.write_matrix":
                wrapped = self._counting_writes(self._wrap(fn, name))
            else:
                wrapped = self._wrap(fn, name)
            for ns in {id(m): m for m in namespaces + [owner]}.values():
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
        for modname, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            setattr(cls, method, self._wrap(cls.__dict__[method], _span_name(modname, cls_name)))

    def _counting_writes(self, write_matrix):
        tracer = self

        def counted(path, *args, **kwargs):
            out = write_matrix(path, *args, **kwargs)
            if tracer.active:
                tracer.bytes_written += os.path.getsize(path)
            return out

        counted.__wrapped__ = write_matrix
        return counted

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_idx, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.call, dtype=np.int64),
        )

    def write(self, path):
        """Write all spans as arrays in one ``.npz`` file."""
        name_idx, start, end, parent, call = self.arrays()
        np.savez(
            path, names=np.array(self.names), name=name_idx, start=start, end=end,
            parent=parent, call=call,
        )

    def metrics(self, ops):
        """Every per-layer metric, per operation, in the order BENCHMARK.json lists them."""
        name_idx, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        total = np.bincount(name_idx, weights=dur, minlength=k)
        own = np.bincount(name_idx, weights=self_time, minlength=k)
        count = np.bincount(name_idx, minlength=k)

        def pick(arr, *names):
            return float(sum(arr[self._code[n]] for n in names if n in self._code))

        def ms(*names):
            return 1e3 * pick(total, *names) / ops

        def self_ms(*names):
            return 1e3 * pick(own, *names) / ops

        def calls(*names):
            return pick(count, *names) / ops

        ajnm = (_AJNM, _AJNM + ".exp")
        under_auto = parent[name_idx == self._code["linalg.expm_skew"]]
        under_auto = under_auto[under_auto >= 0]
        fallbacks = int(np.count_nonzero(name_idx[under_auto] == self._code[_AJNM]))
        values = {
            "blocks.build_Vjnm.ms_per_op": ms("blocks.build_Vjnm"),
            "blocks.build_Vjnm.calls_per_op": calls("blocks.build_Vjnm"),
            "blocks.build_Ajnm.self_ms_per_op": self_ms(*ajnm),
            "blocks.assemble_rho_block.self_ms_per_op": self_ms("blocks.assemble_rho_block"),
            "single.build_Vjn.ms_per_op": ms("single.build_Vjn"),
            "single.assemble_rho_single.self_ms_per_op": self_ms("single.assemble_rho_single"),
            "blocks.exp_fallback.calls_per_op": fallbacks / ops,
            "linalg.expm_skew.ms_per_op": ms("linalg.expm_skew"),
            "linalg.expm_skew.calls_per_op": calls("linalg.expm_skew"),
            "blocks.Vj_exp_reference.ms_per_op": 1e3 * self.reference_s / ops,
            "blocks.BlockParams.ms_per_op": ms("blocks.BlockParams"),
            "blocks.build_core.ms_per_op": ms("blocks.build_core"),
            "states.DensityMatrix.ms_per_op": ms("states.DensityMatrix"),
            "states.DensityMatrix.calls_per_op": calls("states.DensityMatrix"),
            "numpy.eigensolver.calls_per_op": calls("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
            "numpy.svd.calls_per_op": calls("numpy.linalg.svd"),
            "entanglement.ppt_check.ms_per_op": ms("entanglement.ppt_check"),
            "entanglement.partial_transpose.ms_per_op": ms("entanglement.partial_transpose"),
            "entanglement.circulant_ppt_margins.ms_per_op": ms("entanglement.circulant_ppt_margins"),
            "entanglement.detect_structure.ms_per_op": ms("entanglement.detect_structure"),
            "families.constructors.self_ms_per_op": self_ms(*FAMILY_CONSTRUCTORS),
            "families.constructors.calls_per_op": calls(*FAMILY_CONSTRUCTORS),
            "cli.cmd_sweep.self_ms_per_op": self_ms("cli.cmd_sweep"),
            "linalg.matfun_psd.ms_per_op": ms("linalg.matfun_psd"),
            "linalg.polar.ms_per_op": ms("linalg.polar"),
            "linalg.herm_eig.ms_per_op": ms("linalg.herm_eig"),
            "validate.run_validation.self_ms_per_op": self_ms("validate.run_validation"),
            "cli.cmd_validate.self_ms_per_op": self_ms("cli.cmd_validate"),
            "io.load_param_file.ms_per_op": ms("io.load_param_file"),
            "io.write_matrix.ms_per_op": ms("io.write_matrix"),
            "io.read_matrix.ms_per_op": ms("io.read_matrix"),
            "io.bytes_written_per_op": self.bytes_written / ops,
            "cli.cmd_generate.self_ms_per_op": self_ms("cli.cmd_generate"),
            "cli.cmd_analyze.self_ms_per_op": self_ms("cli.cmd_analyze"),
        }
        return values


def _asks_for_exp(args, kwargs):
    """True when a ``build_Ajnm(Zs, n, j, m, method, tol)`` call asks for ``exp``."""
    method = kwargs.get("method", args[4] if len(args) > 4 else "closed")
    return method == "exp"
