#!/usr/bin/env python3
"""The generic leaf-stored hybrid framework (paper section 7).

The paper's future work asks for "a general framework which enables the
use of a CPU-GPU hybrid platform for any arbitrary leaf-stored tree
structure".  This example runs three different structures — the
implicit HB+-tree, the regular HB+-tree and a CSS-tree — through
:class:`repro.HybridFramework` on both evaluation machines and shows
how the framework picks a different execution mode per (structure,
machine) pair.

Run:  python examples/generic_framework.py
"""

import numpy as np

from repro import (
    CssTree,
    CssTreeAdapter,
    HBPlusTree,
    HybridFramework,
    ImplicitHBPlusTree,
    MemorySystem,
    machine_m1,
    machine_m2,
)
from repro.workloads import generate_dataset, make_point_queries


def structures_for(keys, values, machine):
    # both HB+-trees speak the framework's protocol natively; the
    # CSS-tree needs an adapter that mirrors its directory to the GPU
    yield ImplicitHBPlusTree(keys, values, machine=machine)
    yield HBPlusTree(keys, values, machine=machine)
    yield CssTreeAdapter(
        CssTree(keys, values, mem=MemorySystem.from_spec(machine.cpu)),
        machine,
    )


def main() -> None:
    keys, values = generate_dataset(1 << 17, seed=10)
    sample = make_point_queries(keys, 2048)
    probes = keys[:4096]

    for machine in (machine_m1(), machine_m2()):
        print(f"\n=== {machine.name}: {machine.cpu.name} + "
              f"{machine.gpu.name} ===")
        for tree in structures_for(keys, values, machine):
            framework = HybridFramework(tree, machine, sample=sample)
            plan = framework.plan()
            out = framework.execute(probes)
            assert np.array_equal(out, values[:4096])
            print(f"  {tree.name:<18} {plan.describe()}")
    print(
        "\nThe framework measured each structure's per-level CPU and GPU"
        "\ncosts on each machine and chose: plain hybrid where the GPU is"
        "\nstrong (M1), a balanced (D, R) split or CPU-only where it is"
        "\nnot (M2) — all verified functionally above."
    )


if __name__ == "__main__":
    main()
