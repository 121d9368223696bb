"""Exactness of the gate's lookup tables.

``CostModel.cost_lower_bound``, ``AreaModel.area_cost`` and
``ScheduleEvaluator.makespan_lower_bound`` answer from per-model tables
(per-core cycles, the no-sharing area, memoized group costs and the
kept all-sharing normalizer).  These tests hold them to ``==`` against
a reference that recomputes everything on every call:
:func:`true_lower_bound` over the cores and a brand-new
:class:`AreaModel` per call.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import workloads
from repro.analog_wrapper.sizing import CompatibilityPolicy
from repro.core.area import AreaModel
from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator
from repro.core.lower_bounds import true_lower_bound
from repro.core.sharing import all_partitions, bell_number, random_partitions

QUICK = {"shuffles": 0, "improvement_passes": 1}
WIDTH = 16

#: A policy tight enough that most presets have incompatible groups.
TIGHT = CompatibilityPolicy(high_resolution_bits=8, high_speed_hz=10e6)

VARIANTS = {
    "default": {},
    "positions": {"use_positions": True},
    "max": {"group_area_basis": "max"},
    "tight": {"policy": TIGHT},
}


def _placed(cores, seed):
    """*cores* with seeded floorplan positions."""
    rng = random.Random(seed)
    return [
        dataclasses.replace(
            core, position=(rng.uniform(0, 20), rng.uniform(0, 20))
        )
        for core in cores
    ]


def _partitions(names, seed):
    """Seeded canonical partitions plus member-shuffled twins, each
    listed twice so that the second pass reads memoized values."""
    rng = random.Random(seed)
    canonical = random_partitions(
        names, min(10, bell_number(len(names))), seed=seed
    )
    shuffled = [
        tuple(tuple(rng.sample(group, len(group))) for group in p)
        for p in canonical
    ]
    once = canonical + shuffled
    return once + once


def _outcome(fn, *args):
    """``("ok", value)`` or ``("error", exception type)``."""
    try:
        return "ok", fn(*args)
    except (ValueError, KeyError) as exc:
        return "error", type(exc)


def _reference_area(cores, kwargs, partition):
    return AreaModel(cores, **kwargs).area_cost(partition)


def _reference_makespan_bound(evaluator, cores, partition):
    return max(
        evaluator.invariant_time_bound, true_lower_bound(cores, partition)
    )


def _reference_cost_bound(model, cores, kwargs, partition):
    t_bound = (
        100.0
        * _reference_makespan_bound(model.evaluator, cores, partition)
        / model.evaluator.makespan(model._all_share)
    )
    return (
        model.weights.time * t_bound
        + model.weights.area
        * min(100.0, _reference_area(cores, kwargs, partition))
    )


@pytest.fixture(scope="module")
def evaluators():
    """One quick evaluator per shipped preset, shared by the variants."""
    out = {}
    for name in workloads.names():
        soc = workloads.build(name)
        out[name] = ScheduleEvaluator(soc, WIDTH, **QUICK)
    return out


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("preset", workloads.names())
def test_tables_equal_the_reference(evaluators, preset, variant):
    evaluator = evaluators[preset]
    soc = evaluator.soc
    kwargs = VARIANTS[variant]
    cores = soc.analog_cores
    if kwargs.get("use_positions"):
        cores = _placed(cores, seed=len(preset))
    model = CostModel(
        soc, WIDTH, CostWeights(time=0.6, area=0.4),
        AreaModel(cores, **kwargs), evaluator=evaluator,
    )
    names = [core.name for core in cores]
    for partition in _partitions(names, seed=len(preset) + 1):
        assert _outcome(model.area_model.area_cost, partition) == \
            _outcome(_reference_area, cores, kwargs, partition), partition
        assert evaluator.makespan_lower_bound(partition) == \
            _reference_makespan_bound(evaluator, cores, partition)
        assert _outcome(model.cost_lower_bound, partition) == _outcome(
            _reference_cost_bound, model, cores, kwargs, partition
        ), partition


def test_tight_policy_yields_incompatible_groups(evaluators):
    """The ``tight`` variant above really exercises the error path."""
    raised = 0
    for name in workloads.names():
        cores = evaluators[name].soc.analog_cores
        names = [core.name for core in cores]
        model = AreaModel(cores, policy=TIGHT)
        for partition in _partitions(names, seed=len(name) + 1):
            raised += _outcome(model.area_cost, partition)[0] == "error"
    assert raised > 0


def test_positional_beta_depends_on_member_order():
    """The group memo keys by member order: with positions, two orders
    of one group may differ in the last bit, and each must read back
    exactly what a fresh model computes for that order."""
    soc = workloads.build("big16m")
    cores = _placed(soc.analog_cores, seed=3)
    model = AreaModel(cores, use_positions=True)
    rng = random.Random(5)
    names = [core.name for core in cores]
    differ = 0
    for _ in range(200):
        group = tuple(rng.sample(names, rng.randint(3, 8)))
        costs = []
        for order in (group, group[::-1]):
            costs.append(model.group_cost_mm2(order))
            assert costs[-1] == \
                AreaModel(cores, use_positions=True).group_cost_mm2(order)
        differ += costs[0] != costs[1]
    assert differ > 0  # else a set-keyed memo would pass unnoticed


class TestErrors:
    def test_incompatible_group_raises_on_every_call(self, mini_ms_soc):
        cores = mini_ms_soc.analog_cores
        model = AreaModel(cores, policy=TIGHT)
        group = tuple(sorted(core.name for core in cores))
        for _ in range(3):
            with pytest.raises(ValueError, match="incompatible"):
                model.group_cost_mm2(group)
            with pytest.raises(ValueError, match="incompatible"):
                model.area_cost((group,))

    def test_non_covering_partition_raises(self, mini_ms_soc):
        cores = mini_ms_soc.analog_cores
        model = AreaModel(cores)
        names = sorted(core.name for core in cores)
        model.area_cost(tuple((name,) for name in names))  # warm memo
        for partition in ((tuple(names[:1]),), (tuple(names), ("ghost",))):
            with pytest.raises(ValueError, match="does not cover"):
                model.area_cost(partition)

    def test_unknown_core_raises_from_the_cycle_table(self, mini_ms_soc):
        evaluator = ScheduleEvaluator(mini_ms_soc, 8, **QUICK)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown analog core"):
                evaluator.makespan_lower_bound((("ghost",),))

    def test_model_is_frozen(self, mini_ms_soc):
        model = AreaModel(mini_ms_soc.analog_cores)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.beta = 1.0


def test_kept_normalizer_survives_packing():
    """Packing every other partition (which propagates schedules
    through the evaluator's cache) never moves the all-sharing
    schedule the model keeps as its normalizer."""
    soc = workloads.build("d695m")
    model = CostModel(
        soc, 8, CostWeights.balanced(), AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, 8, **QUICK),
    )
    kept = model.all_share_makespan
    names = [core.name for core in soc.analog_cores]
    for partition in all_partitions(names):
        model.total_cost(partition)
        assert model.evaluator.makespan(model._all_share) == kept
        assert model.all_share_makespan == kept
