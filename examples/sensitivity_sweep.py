#!/usr/bin/env python
"""Domain example: ZnG design-space sensitivity sweeps.

Sweeps ZnG's main design knobs one at a time and prints how each affects IPC,
L2 hit rate and register hit rate.  This is the exploration the paper does to
justify its default configuration (Table I).

The axes are not listed here: they are enumerated from the config schema
(``repro.configspace.ablation_axes()`` — the ``ablation`` metadata each field
declares), and the ``table1-sensitivity`` preset holds one point per axis
value, so this example automatically picks up any new sensitivity axis added
to ``repro/config.py``.  It runs that preset once and pivots each axis out of
the one result.  Each axis is also available as its own experiment preset
(``python -m repro sweep --preset reg-sweep`` etc.) and documented by
``python -m repro config --explain <path>``.

Run with::

    python examples/sensitivity_sweep.py
"""

from __future__ import annotations

from repro.analysis import sensitivity
from repro.configspace import SCHEMA, ablation_axes, get_preset
from repro.runner import run_sweep


def _extra_metric(result) -> str:
    parts = [f"l2_hit={result.l2_hit_rate:.3f}"]
    if "register_hit_rate" in result.extra:
        parts.append(f"reg_hit={result.extra['register_hit_rate']:.3f}")
    if result.extra.get("prefetch_rate"):
        parts.append(f"prefetch_rate={result.extra['prefetch_rate']:.3f}")
    return "  ".join(parts)


def main() -> None:
    axes = ablation_axes()
    print(f"{len(axes)} sensitivity axes declared in the config schema:\n")

    sweep = run_sweep(get_preset("table1-sensitivity").spec(scale=0.2))
    for path in sorted(axes):
        spec = SCHEMA.get(path)
        print(f"{path}  [{spec.unit}] — {spec.doc}")
        for value, result in sensitivity.axis_from_result(sweep, path).items():
            print(f"  {str(value):>10}: IPC={result.ipc:.4f}  "
                  f"{_extra_metric(result)}")
        print()


if __name__ == "__main__":
    main()
