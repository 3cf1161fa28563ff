"""PatDNN execution code generation stage (paper §5).

The compiler consumes a pattern-pruned conv layer — weights plus an
(F, C) pattern-id assignment (0 = connectivity-pruned kernel) — and
produces everything Figure 7 shows:

* :mod:`repro.compiler.reorder`   — filter kernel reorder (FKR, §5.2)
* :mod:`repro.compiler.storage`   — FKW compact weight format (§5.3),
  plus CSR/COO comparators for Figure 16
* :mod:`repro.compiler.lre`       — register-level load redundancy
  elimination analysis (§5.4)
* :mod:`repro.compiler.codegen`   — executable kernels (no-opt /
  +Reorder / +LRE / GEMM in numpy, and the native C kernel) and source
  text
* :mod:`repro.compiler.native`    — builds (once per machine) and loads
  the native FKW conv kernel ``fkw_conv.c``
* :mod:`repro.compiler.tuner`     — GA parameter auto-tuning with an MLP
  performance estimator (§5.5)
* :mod:`repro.compiler.lr`        — the layerwise representation (Fig. 8)
* :mod:`repro.compiler.compile`   — the end-to-end ``compile_layer`` /
  ``compile_model`` drivers
"""

from repro.compiler.reorder import FKRResult, filter_kernel_reorder
from repro.compiler.storage import FKWLayer, CSRLayer, COOLayer
from repro.compiler.lre import LoadCounts, count_register_loads
from repro.compiler.lr import LayerwiseRepresentation
from repro.compiler.codegen import KernelCache, generate_kernel, generate_source
from repro.compiler.tuner import Schedule, ScheduleSpace, GATuner, PerformanceEstimator
from repro.compiler.compile import CompiledLayer, CompiledModel, compile_layer, compile_model, OptLevel

__all__ = [
    "FKRResult",
    "filter_kernel_reorder",
    "FKWLayer",
    "CSRLayer",
    "COOLayer",
    "LoadCounts",
    "count_register_loads",
    "LayerwiseRepresentation",
    "KernelCache",
    "generate_kernel",
    "generate_source",
    "Schedule",
    "ScheduleSpace",
    "GATuner",
    "PerformanceEstimator",
    "CompiledLayer",
    "CompiledModel",
    "compile_layer",
    "compile_model",
    "OptLevel",
]
