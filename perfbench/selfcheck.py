"""Show that each workload's check trips on a corrupted result.

Feeds the checks true results and then corrupted ones (a perturbed
estimate, one flipped bit, a component that got worse, a dataset over its
budget) and exits with 1 if any corruption goes unnoticed or any true
result is refused. Runs in a few seconds::

    python3 perfbench/selfcheck.py
"""

import sys
from types import SimpleNamespace

import numpy as np

import workloads
from workloads import WORKLOADS


def flip_bit(m: np.ndarray, index: int = 7) -> np.ndarray:
    out = m.copy()
    out.reshape(-1).view(np.uint64)[index] ^= np.uint64(1)
    return out


def main() -> int:
    desk, streamed, wide = (WORKLOADS[n] for n in ("stored_desk", "streamed_budget", "wide_init"))
    gt, cfg = workloads.setup(desk, 0)
    truths = gt.matrices()
    rng = np.random.default_rng(0)
    noise = [rng.standard_normal(t.shape) for t in truths]

    def exact(estimates):
        report = SimpleNamespace(estimates=estimates)
        return workloads.check_exact(desk, gt, cfg, 0, None, report, [])

    def improves(inits, finals):
        report = SimpleNamespace(estimates=finals)
        return workloads.check_improves_init(wide, gt, cfg, 0, None, report, inits)

    perturbed = [t.copy() for t in truths]
    perturbed[1] += 1e-6 * noise[1]
    inits = [t + 0.3 * e for t, e in zip(truths, noise)]
    worse = [t + 0.1 * e for t, e in zip(truths, noise)]
    worse[2] = truths[2] + 0.4 * noise[2]
    over_budget = SimpleNamespace(a=np.zeros(streamed.stored_budget + 2**22))
    within_budget = SimpleNamespace(a=np.zeros(streamed.stored_budget))

    cases = [
        ("stored_desk accepts the truth, permuted", exact(truths[::-1]) is None),
        ("stored_desk refuses a perturbed estimate", exact(perturbed) is not None),
        ("streamed_budget accepts equal bits", workloads.same_bits(truths, [t.copy() for t in truths])),
        ("streamed_budget refuses one flipped bit",
         not workloads.same_bits(truths, [truths[0], flip_bit(truths[1]), truths[2]])),
        ("wide_init accepts improved components", improves(inits, truths) is None),
        ("wide_init refuses a component that got worse", improves(inits, worse) is not None),
        ("wide_init refuses missing initializations", improves(inits[:2], truths) is not None),
        ("budget check accepts a dataset at its budget",
         workloads.check_dataset_budget(streamed, within_budget) is None),
        ("budget check refuses a dataset over its budget",
         workloads.check_dataset_budget(streamed, over_budget) is not None),
    ]
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
