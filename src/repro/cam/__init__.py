"""CAM / lookup-table inference: the deployment half of PECAN (Algorithm 1).

After training, each PECAN layer's weight-prototype products are precomputed
into a lookup table (``Y^(j) = W₁^(j) C^(j)``) and inference reduces to

1. a similarity search of every input subvector against the ``p`` prototypes
   of its group — the content-addressable-memory operation, and
2. a table lookup (PECAN-D) or a weighted sum of table columns (PECAN-A).

This package provides:

* :mod:`repro.cam.layer_lut` — the :class:`LayerLUT` deployment artifact
  (import-lean: no training dependencies),
* :mod:`repro.cam.lut` — LUT construction from trained layers,
* :mod:`repro.cam.cam_array` — a behavioural model of the CAM macro (the
  bank searched by the per-group reference kernel, with its own match-line
  and energy tallies) and the energy constants of the cost model,
* :mod:`repro.cam.counters` — the one static cost model
  (:func:`pecan_position_cost`, Table 1 plus the CAM search), from which the
  runtimes and :mod:`repro.hardware.opcount` draw every statistic, and the
  per-layer operation counters (import-lean),
* :mod:`repro.cam.runtime` — the autograd-free per-layer Algorithm-1 kernels
  shared by the model engine and the serving stack,
* :mod:`repro.cam.inference` — the lookup-only inference engine: a thin
  executor over the :mod:`repro.ir` graph whose PECAN nodes run Algorithm 1,
* :mod:`repro.cam.verify` — operation tracing that proves PECAN-D inference
  uses zero multiplications and checks LUT inference matches the training
  graph bit-for-bit.

Re-exports resolve lazily (PEP 562) so the serving stack can import the lean
modules (``layer_lut``, ``cam_array``, ``counters``, ``runtime``) without
loading autograd.
"""

import importlib

#: Lazily resolved re-exports: attribute name -> providing submodule.
_EXPORTS = {
    "LayerLUT": "repro.cam.layer_lut",
    "PrunedLayerLUT": "repro.cam.layer_lut",
    "total_memory_footprint": "repro.cam.layer_lut",
    "build_layer_lut": "repro.cam.lut",
    "build_model_luts": "repro.cam.lut",
    "CAMArray": "repro.cam.cam_array",
    "CAMStats": "repro.cam.cam_array",
    "CAMEnergyModel": "repro.cam.cam_array",
    "LUTLayerRuntime": "repro.cam.runtime",
    "CAMInferenceEngine": "repro.cam.inference",
    "lut_inference": "repro.cam.inference",
    "LayerOpCount": "repro.cam.counters",
    "OpCounter": "repro.cam.counters",
    "MultiplierUsageError": "repro.cam.counters",
    "trace_inference_ops": "repro.cam.verify",
    "assert_multiplier_free": "repro.cam.verify",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
