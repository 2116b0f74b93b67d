import copy
import gc
import random
import re
import sys
import threading
from itertools import chain
from operator import itemgetter

import pytest

from wfsmr.mapreduce import (
    Engine,
    EngineConfig,
    GroupedInput,
    JobError,
    JobSpec,
    gc_paused,
)

from wfsmr.operators import _itself, _picker

from tests.helpers import map_and_group_reference, per_key, serial_mapreduce

DOCS = ["Hello world.", "Hello MapReduce."]


# the records of these tests are (key, value) pairs
by_key = itemgetter(0)


# the kinds of record collection a job input may be: the engine groups one
# with a length in one pass first
INPUT_KINDS = {
    "list": list,
    "keys view": lambda rows: dict.fromkeys(rows).keys(),
    "generator": lambda rows: (row for row in rows),
}


def values(records):
    return [value for _, value in records]


def collect_reducer(key, groups):
    return [(key, tuple(sorted(values(chain.from_iterable(groups)))))]


def wordcount_job(lines) -> JobSpec:
    """Word-frequency job over text lines, the engine's smoke test: each word
    is a record keyed by itself, so its count is its group's size."""
    words = [word for line in lines for word in re.findall(r"\w+", line)]

    def reducer(key, groups):
        return [(key, len(groups[0]))]

    return JobSpec("wordcount", per_key(reducer), [(lambda word: word, words)])


def wordcount(engine, lines) -> dict:
    output, _ = engine.run_job(wordcount_job(lines))
    return dict(output.keys())  # the records are (word, count) pairs


class TestRunJob:
    def test_wordcount_worked_example(self):
        engine = Engine()
        counts = wordcount(engine, DOCS)
        assert counts == {"Hello": 2, "world": 1, "MapReduce": 1}

    def test_empty_input(self):
        engine = Engine()
        output, stats = engine.run_job(wordcount_job([]))
        assert output.keys() == set()
        assert stats.reduce_groups == 0
        assert stats.map_in == 0

    def test_output_keeps_the_order_the_reduce_emitted(self):
        # each record once, where the reduce first emitted it
        spec = JobSpec("order", per_key(lambda key, groups: [(key * 10,), (0,)]),
                       [(lambda record: record, [5, 3, 9, 1])])
        output, _ = Engine().run_job(spec)
        assert list(output) == [(50,), (0,), (30,), (90,), (10,)]

    def test_grouping_contract(self):
        spec = JobSpec(
            name="group",
            reduce_task=per_key(collect_reducer),
            inputs=[(by_key, [("k", "v1"), ("k", "v2")])],
        )
        engine = Engine()
        output, stats = engine.run_job(spec)
        assert output.keys() == {("k", ("v1", "v2"))}
        assert stats.reduce_groups == 1

    @pytest.mark.parametrize("held_at", [None, 0, 1])
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_a_key_of_one_input_gets_an_empty_group_for_the_other(self, partitions, held_at):
        seen = {}

        def reducer(key, groups):
            seen[key] = [values(records) for records in groups]
            return []

        left = [("both", 1), ("left", 2), ("both", 5)]
        right = [("both", 3), ("right", 4)]
        inputs = [(by_key, left), (by_key, right)]
        if held_at is not None:
            inputs[held_at] = GroupedInput(*inputs[held_at])
        engine = Engine(EngineConfig(partitions=partitions))
        for _ in range(2):  # the second job reads a held input from its groups
            seen.clear()
            _, stats = engine.run_job(JobSpec("cogroup", per_key(reducer), inputs))
            # only the keys of input 0 are reduced: "right" never is
            assert seen == {"both": [[1, 5], [3]], "left": [[2], []]}
            assert (stats.reduce_groups, stats.max_group) == (2, 3)

    def test_repeated_word(self):
        engine = Engine()
        counts = wordcount(engine, ["spam spam spam spam spam"])
        assert counts == {"spam": 5}

    def test_each_key_reduced_exactly_once(self):
        calls = []

        def reducer(key, groups):
            calls.append(key)
            return [(key, sum(values(groups[0])) + sum(values(groups[1])))]

        records = [(i % 5, 1) for i in range(40)]
        spec = JobSpec("once", per_key(reducer), [(by_key, records[:25]), (by_key, records[25:])])
        engine = Engine(EngineConfig(partitions=3))
        _, stats = engine.run_job(spec)
        assert sorted(calls) == [0, 1, 2, 3, 4]
        assert stats.reduce_groups == len(set(calls)) == 5

    def test_mapper_failure_identifies_record(self):
        def bad_key(record):
            if record[0] == 3:
                raise ValueError("boom")
            return record[0]

        spec = JobSpec("bad", per_key(collect_reducer), [(bad_key, [(i, i) for i in range(5)])])
        engine = Engine()
        with pytest.raises(JobError) as err:
            engine.run_job(spec)
        assert err.value.phase == "map"
        assert err.value.item == (3, 3)

        # the third record fails on each kind of input; a list and a keys view
        # are keyed in one pass first, so their first three records twice
        records = [(i, i) for i in range(5)]
        calls = []

        def third_fails(record):
            calls.append(record)
            if record[0] == 2:
                raise ValueError("boom")
            return record[0]

        for kind, keyed in [("list", 6), ("keys view", 6), ("generator", 3)]:
            calls.clear()
            records_of_kind = INPUT_KINDS[kind](records)
            spec = JobSpec("bad", per_key(collect_reducer), [(third_fails, records_of_kind)])
            with pytest.raises(JobError) as err:
                engine.run_job(spec)
            assert (err.value.phase, err.value.item) == ("map", (2, 2))
            assert isinstance(err.value.cause, ValueError)
            assert len(calls) == keyed

    @pytest.mark.parametrize("partitions", [1, 2, 3, 4])
    def test_a_task_reduce_runs_once_per_reduce_task(self, partitions):
        records = [(i % 5, i) for i in range(20)] + [(7, 0)]
        others = [(0, -1), (3, -1), (3, -2), (9, -1)]
        calls = []

        def reduce_task(own, theirs, out):
            (single, multi), [(one, many)] = own, theirs
            calls.append(len(single) + len(multi))
            # input 1's keys in this task that input 0 has too
            assert set(one) | set(many) <= {0, 3, 9}
            out.extend(key for key in chain(single, multi) if key not in one and key not in many)
            return 0

        spec = JobSpec("task", reduce_task, [(by_key, records), (by_key, others)])
        engine = Engine(EngineConfig(partitions=partitions))
        output, stats = engine.run_job(spec)
        assert len(calls) == partitions
        assert output.keys() == {1, 2, 4, 7}
        assert stats.reduce_groups == sum(calls) == 6
        assert stats.reduce_out == 4

    def test_a_task_reduce_failure_identifies_the_task(self):
        def reduce_task(own, others, out):
            raise RuntimeError("nope")

        spec = JobSpec("bad", reduce_task, [(by_key, [("k", 1)])])
        engine = Engine()
        with pytest.raises(JobError) as err:
            engine.run_job(spec)
        assert (err.value.job, err.value.phase, err.value.item) == ("bad", "reduce", 0)
        assert isinstance(err.value.cause, RuntimeError)

    def test_a_job_without_inputs_is_refused_by_name(self):
        engine = Engine()
        with pytest.raises(ValueError, match="job 'nothing'"):
            engine.run_job(JobSpec("nothing", per_key(collect_reducer), []))
        assert engine.stats_log == []

    def test_partitions_must_be_positive(self):
        with pytest.raises(ValueError):
            Engine(EngineConfig(partitions=0))

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_each_record_is_reduced_as_itself(self, partitions, held):
        records = [(i % 4, i) for i in range(10)]
        seen = []

        def reducer(key, groups):
            seen.extend(groups[0])
            return []

        source = GroupedInput(by_key, records) if held else (by_key, records)
        engine = Engine(EngineConfig(partitions=partitions))
        _, stats = engine.run_job(JobSpec("itself", per_key(reducer), [source]))
        assert sorted(map(id, seen)) == sorted(map(id, records))
        assert stats.map_in == stats.map_out == len(records)


class TestMapPhase:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
    @pytest.mark.parametrize("repeats", [False, True])
    def test_groups_equal_the_per_record_loop(self, repeats, kind, partitions):
        records = [(i % 5 if repeats else 40 - i, i) for i in range(23)]
        seen = []

        def reduce_task(own, others, out):
            seen.append(own)
            return 0

        spec = JobSpec("map", reduce_task, [(by_key, INPUT_KINDS[kind](records))])
        _, stats = Engine(EngineConfig(partitions=partitions)).run_job(spec)
        reference, mapped = map_and_group_reference(by_key, records, partitions)
        assert stats.map_in == mapped == len(records)
        assert len(seen) == partitions
        for (single, multi), (ref_single, ref_multi) in zip(seen, reference):
            assert list(single.items()) == list(ref_single.items())
            assert list(multi.items()) == list(ref_multi.items())
        assert sum(len(multi) for _, multi in seen) == (5 if repeats else 0)

    @pytest.mark.parametrize("kind, repeats, keyed", [
        ("list", False, 23), ("keys view", False, 23), ("generator", False, 23),
        ("list", True, 46), ("generator", True, 23),
    ])
    def test_only_an_input_with_a_length_whose_keys_repeat_is_keyed_twice(
            self, kind, repeats, keyed):
        calls = []

        def key_of(record):
            calls.append(record)
            return record[0]

        records = [(i % 5 if repeats else i, i) for i in range(23)]
        spec = JobSpec("map", per_key(collect_reducer), [(key_of, INPUT_KINDS[kind](records))])
        Engine().run_job(spec)
        assert len(calls) == keyed

    def test_the_solver_key_functions(self):
        row = (7, "a", 9)
        assert _itself(row) is row
        assert _picker([1])(row) == ("a",)
        assert _picker([])(row) == ()
        assert _picker([2, 0])(row) == (9, 7)
        assert _picker([3], ("c",))(row) == ("c",)


class TestDeterminism:
    @staticmethod
    def _random_spec(rng: random.Random):
        a, b, m = rng.randrange(1, 9), rng.randrange(17), rng.randrange(2, 7)
        records = [(i, rng.randrange(50)) for i in range(rng.randrange(0, 60))]
        # two (key, value) records for each drawn one
        pairs = []
        for _, value in records:
            key = (value * a + b) % m
            pairs += [(key, value), ((key + 1) % m, 1)]

        def reducer(key, groups):
            return [(key, (sum(values(groups[0])) + 2 * sum(values(groups[1]))) * a)]

        cut = 2 * rng.randrange(len(records) + 1)
        return reducer, lambda: [(by_key, pairs[:cut]), (by_key, pairs[cut:])]

    @pytest.mark.parametrize("seed", range(8))
    def test_output_independent_of_partitions_and_workers(self, seed):
        reducer, make_inputs = self._random_spec(random.Random(seed))
        reference = serial_mapreduce(reducer, make_inputs())
        counts = set()
        for workers, partitions in [(1, 1), (1, 2), (1, 7), (4, 1), (4, 7)]:
            engine = Engine(EngineConfig(workers=workers, partitions=partitions))
            output, stats = engine.run_job(JobSpec("arith", per_key(reducer), make_inputs()))
            assert output.keys() == reference, (workers, partitions)
            assert stats.partitions == partitions
            counts.add(
                (stats.map_in, stats.map_out, stats.reduce_groups, stats.reduce_out,
                 stats.max_group)
            )
        assert len(counts) == 1, counts

    def test_jobs_run_on_the_calling_thread(self):
        threads = []

        def key_of(record):
            threads.append(threading.current_thread())
            return record[0]

        def reducer(key, groups):
            threads.append(threading.current_thread())
            return [(key, sum(values(chain.from_iterable(groups))))]

        records = [(i % 11, i) for i in range(60)]
        spec = JobSpec("where", per_key(reducer), [(key_of, records[:30]), (key_of, records[30:])])
        engine = Engine(EngineConfig(workers=4, partitions=7))
        output, _ = engine.run_job(spec)
        assert len(output) == 11
        # keys repeat, so the map keys each record twice: once in one pass, again in the loop
        assert len(threads) == 2 * 60 + 11
        assert set(threads) == {threading.current_thread()}

    def test_wordcount_across_configs(self):
        expected = {("Hello", 2), ("world", 1), ("MapReduce", 1)}
        for workers, partitions in [(1, 1), (2, 3), (4, 7)]:
            engine = Engine(EngineConfig(workers=workers, partitions=partitions))
            output, _ = engine.run_job(wordcount_job(DOCS))
            assert output.keys() == expected


class TestStats:
    def test_counts_and_lines(self):
        engine = Engine()
        _, stats = engine.run_job(wordcount_job(DOCS))
        assert stats.map_in == stats.map_out == 4  # the words of DOCS
        assert stats.reduce_groups == 3
        assert stats.reduce_out == 3
        assert engine.stats_log == [stats]
        assert stats.name == "wordcount"
        assert stats.map_ms >= 0 and stats.reduce_ms >= 0

    def test_max_group_is_the_largest_reduce_group(self):
        records = [("hot", i) for i in range(50)] + [("cold", 1)]

        def reducer(key, groups):
            return [(key, sum(values(groups[0])))]

        engine = Engine()
        output, stats = engine.run_job(JobSpec("skew", per_key(reducer), [(by_key, records)]))
        assert dict(output.keys()) == {"hot": sum(range(50)), "cold": 1}
        assert stats.max_group == 50



class TestGroupedInput:
    HELD = [("a", 1), ("b", 2), ("a", 3), ("c", 4)]

    def jobs(self, held, fresh_inputs):
        return [JobSpec("cached", per_key(collect_reducer), [held, (by_key, fresh)])
                for fresh in fresh_inputs]

    @pytest.mark.parametrize("partitions", [1, 7])
    def test_held_inputs_are_mapped_once(self, partitions):
        fresh_inputs = [[("a", 5), ("d", 6)], [], [("b", 7), ("b", 8)]]
        held = GroupedInput(by_key, iter(self.HELD))  # a second read finds it empty
        engine = Engine(EngineConfig(partitions=partitions))
        for index, spec in enumerate(self.jobs(held, fresh_inputs)):
            output, stats = engine.run_job(spec)
            # equal to one job over all records, held ones included
            want = serial_mapreduce(collect_reducer, [
                (by_key, self.HELD), (by_key, fresh_inputs[index])])
            assert output.keys() == want
            assert stats.reduce_groups == len(want)
            fresh = len(fresh_inputs[index])
            assert stats.map_in == (len(self.HELD) + fresh if index == 0 else fresh)
            assert stats.cached_groups == (0 if index == 0 else 3)
        assert (held.groups, held.values) == (3, 4)
        assert stats.max_group == 3  # "b": held 2, fresh 7 and 8

    @pytest.mark.parametrize("partitions", [1, 7])
    def test_a_second_job_leaves_the_held_value_lists_unchanged(self, partitions):
        held = GroupedInput(by_key, self.HELD)
        first, second = self.jobs(held, [[("a", 5)], [("a", 6), ("b", 7), ("d", 8)]])

        def held_lists():
            return [values for _, multi in held.tasks for values in multi.values()]

        engine = Engine(EngineConfig(partitions=partitions))
        engine.run_job(first)
        lists, kept = held_lists(), copy.deepcopy(held.tasks)
        engine.run_job(second)
        assert held.tasks == kept
        assert len(lists) == 1 and all(a is b for a, b in zip(held_lists(), lists))

    def test_partition_count_must_match(self):
        held = GroupedInput(by_key, self.HELD)
        engine = Engine(EngineConfig(partitions=2))
        engine.run_job(self.jobs(held, [[]])[0])
        engine = Engine(EngineConfig(partitions=3))
        with pytest.raises(ValueError):
            engine.run_job(self.jobs(held, [[]])[0])


class TestCollectorPause:
    def test_no_thread_sees_the_collector_on_inside_the_pause(self):
        seen_enabled = []

        def enter_and_leave():
            for _ in range(2000):
                with gc_paused:
                    if gc.isenabled():
                        seen_enabled.append(threading.current_thread().name)

        gc.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not seen_enabled
        assert gc.isenabled()

    def test_the_held_back_young_collection_runs_on_the_way_out(self):
        # so the paused call, not the caller's next allocation, pays for it
        from wfsmr.program import parse_facts

        threshold = gc.get_threshold()[0]
        gc.enable()
        with gc_paused:
            kept = [[] for _ in range(2 * threshold)]
            assert gc.get_count()[0] > threshold
        assert gc.get_count()[0] < threshold
        facts = parse_facts("".join(f"p({i}).\n" for i in range(threshold)))
        assert gc.get_count()[0] < threshold
        assert (len(kept), len(facts)) == (2 * threshold, threshold)

    def test_a_failing_job_restores_the_collector(self):
        def broken_key(record):
            raise ValueError("boom")

        gc.enable()
        engine = Engine()
        with pytest.raises(JobError):
            engine.run_job(JobSpec("broken", per_key(collect_reducer), inputs=[(broken_key, [(1, 2)])]))
        assert gc.isenabled()
