"""E5 — repair quality (precision / recall) vs. noise rate.

Source shape (Cong et al., VLDB 2007): precision and recall degrade
gracefully as the noise rate grows, staying far above a random-correction
baseline; an ablation compares the violation-resolution orderings of
BatchRepair.
"""

from __future__ import annotations

import pytest

from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.repair.batch_repair import BatchRepair
from repro.repair.quality import evaluate_repair

from conftest import print_series

NOISE_RATES = [0.01, 0.03, 0.06, 0.10, 0.20]
RELATION_SIZE = 1500


def _workload(rate: float, seed: int = 29):
    # many locations -> small groups per (cc, zip), so majority resolution is
    # genuinely challenged as the noise rate grows (as in the paper's data)
    generator = CustomerGenerator(seed=505, locations=400)
    clean = generator.generate(RELATION_SIZE)
    noise = inject_noise(clean, rate=rate, attributes=["street", "city"], seed=seed)
    return generator, clean, noise


@pytest.mark.parametrize("rate", [0.03, 0.10])
def test_e05_repair_at_noise_rate(benchmark, rate):
    generator, clean, noise = _workload(rate)
    result = benchmark.pedantic(
        lambda: BatchRepair(noise.dirty.copy(), generator.canonical_cfds()).repair(),
        rounds=1, iterations=1)
    assert result.converged


def test_e05_series(benchmark):
    def compute():
        rows = []
        for rate in NOISE_RATES:
            generator, clean, noise = _workload(rate)
            cfds = generator.canonical_cfds()
            result = BatchRepair(noise.dirty, cfds).repair()
            quality = evaluate_repair(clean, noise.dirty, result.relation)
            rows.append([f"{rate:.0%}", quality.errors, len(result.changes),
                         quality.precision, quality.recall, quality.f1])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E5: repair quality vs. noise rate (1500 tuples)",
                 ["noise", "errors", "changes", "precision", "recall", "f1"], rows)
    # shape: useful quality at low noise, graceful degradation as noise grows
    assert rows[0][4] > 0.6          # recall at 1% noise
    assert rows[-1][4] <= rows[0][4] + 0.05
    assert rows[-1][3] > 0.3         # precision still useful at 20% noise


def test_e05_ordering_ablation(benchmark):
    """Ablation: resolution ordering inside BatchRepair (``BatchRepair.ORDERINGS``)."""

    def compute():
        generator, clean, noise = _workload(0.05)
        cfds = generator.canonical_cfds()
        rows = []
        for ordering in BatchRepair.ORDERINGS:
            result = BatchRepair(noise.dirty.copy(), cfds, ordering=ordering).repair()
            quality = evaluate_repair(clean, noise.dirty, result.relation)
            rows.append([ordering, quality.precision, quality.recall, result.passes])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E5 (ablation): resolution ordering at 5% noise",
                 ["ordering", "precision", "recall", "passes"], rows)
    assert all(row[2] > 0.4 for row in rows)
