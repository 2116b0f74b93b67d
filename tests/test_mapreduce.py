import gc
import random
import sys
import threading

import pytest

from wfsmr.mapreduce import (
    Engine,
    EngineConfig,
    GroupedInput,
    JobError,
    JobSpec,
    gc_paused,
    wordcount,
    wordcount_job,
)

from tests.helpers import serial_mapreduce

DOCS = ["Hello world.", "Hello MapReduce."]


def identity_mapper(record):
    return [record]


def collect_reducer(key, values):
    return [(key, tuple(sorted(values)))]


class TestRunJob:
    def test_wordcount_worked_example(self):
        with Engine() as engine:
            counts = wordcount(engine, DOCS)
        assert counts == {"Hello": 2, "world": 1, "MapReduce": 1}

    def test_empty_input(self):
        with Engine() as engine:
            output, stats = engine.run_job(wordcount_job([]))
        assert output == set()
        assert stats.reduce_groups == 0
        assert stats.map_in == 0

    def test_grouping_contract(self):
        spec = JobSpec(
            name="group",
            mapper=identity_mapper,
            reducer=collect_reducer,
            inputs=[[("k", "v1"), ("k", "v2")]],
        )
        with Engine() as engine:
            output, stats = engine.run_job(spec)
        assert output == {("k", ("v1", "v2"))}
        assert stats.reduce_groups == 1

    def test_repeated_word(self):
        with Engine() as engine:
            counts = wordcount(engine, ["spam spam spam spam spam"])
        assert counts == {"spam": 5}

    def test_each_key_reduced_exactly_once(self):
        calls = []

        def reducer(key, values):
            calls.append(key)
            return [(key, sum(values))]

        records = [(i % 5, 1) for i in range(40)]
        spec = JobSpec("once", identity_mapper, reducer, [records])
        with Engine(EngineConfig(partitions=3)) as engine:
            _, stats = engine.run_job(spec)
        assert sorted(calls) == [0, 1, 2, 3, 4]
        assert stats.reduce_groups == len(set(calls)) == 5

    def test_mapper_failure_identifies_record(self):
        def bad_mapper(record):
            if record[0] == 3:
                raise ValueError("boom")
            return [record]

        spec = JobSpec("bad", bad_mapper, collect_reducer, [[(i, i) for i in range(5)]])
        with Engine() as engine:
            with pytest.raises(JobError) as err:
                engine.run_job(spec)
        assert err.value.phase == "map"
        assert err.value.item == (3, 3)

    def test_reducer_failure_identifies_key(self):
        def bad_reducer(key, values):
            raise RuntimeError("nope")

        spec = JobSpec("bad", identity_mapper, bad_reducer, [[("k", 1)]])
        with Engine() as engine:
            with pytest.raises(JobError) as err:
                engine.run_job(spec)
        assert err.value.phase == "reduce"
        assert err.value.item == "k"

    def test_partitions_must_be_positive(self):
        with pytest.raises(ValueError):
            Engine(EngineConfig(partitions=0))


class TestDeterminism:
    @staticmethod
    def _random_spec(rng: random.Random):
        a, b, m = rng.randrange(1, 9), rng.randrange(17), rng.randrange(2, 7)
        records = [(i, rng.randrange(50)) for i in range(rng.randrange(0, 60))]

        def mapper(record):
            key = (record[1] * a + b) % m
            return [(key, record[1]), ((key + 1) % m, 1)]

        def reducer(key, values):
            return [(key, sum(values) * a)]

        return lambda: JobSpec("arith", mapper, reducer, [list(records)])

    @pytest.mark.parametrize("seed", range(8))
    def test_output_independent_of_partitions_and_workers(self, seed):
        make_spec = self._random_spec(random.Random(seed))
        reference = serial_mapreduce(make_spec())
        counts = set()
        for workers, partitions in [(1, 1), (1, 2), (1, 7), (4, 1), (4, 7)]:
            with Engine(EngineConfig(workers=workers, partitions=partitions)) as engine:
                output, stats = engine.run_job(make_spec())
            assert output == reference, (workers, partitions)
            assert stats.partitions == partitions
            counts.add(
                (stats.map_in, stats.map_out, stats.reduce_groups, stats.reduce_out,
                 stats.max_group)
            )
        assert len(counts) == 1, counts

    def test_jobs_run_on_the_calling_thread(self):
        threads = []

        def mapper(record):
            threads.append(threading.current_thread())
            return [record]

        def reducer(key, values):
            threads.append(threading.current_thread())
            return [(key, sum(values))]

        records = [(i % 11, i) for i in range(60)]
        spec = JobSpec("where", mapper, reducer, [records[:30], records[30:]])
        with Engine(EngineConfig(workers=4, partitions=7)) as engine:
            output, _ = engine.run_job(spec)
        assert len(output) == 11
        assert len(threads) == 60 + 11
        assert set(threads) == {threading.current_thread()}

    def test_wordcount_across_configs(self):
        expected = {("Hello", 2), ("world", 1), ("MapReduce", 1)}
        for workers, partitions in [(1, 1), (2, 3), (4, 7)]:
            with Engine(EngineConfig(workers=workers, partitions=partitions)) as engine:
                output, _ = engine.run_job(wordcount_job(DOCS))
            assert output == expected


class TestStats:
    def test_counts_and_lines(self):
        with Engine() as engine:
            _, stats = engine.run_job(wordcount_job(DOCS))
            lines = engine.stats_lines()
        assert stats.map_in == 2
        assert stats.map_out == 4
        assert stats.reduce_groups == 3
        assert stats.reduce_out == 3
        assert len(lines) == 1
        assert "wordcount" in lines[0] and "groups=3" in lines[0]

    def test_max_group_is_the_largest_reduce_group(self):
        records = [("hot", i) for i in range(50)] + [("cold", 1)]

        def reducer(key, values):
            return [(key, sum(values))]

        with Engine() as engine:
            output, stats = engine.run_job(JobSpec("skew", identity_mapper, reducer, [records]))
        assert dict(output) == {"hot": sum(range(50)), "cold": 1}
        assert stats.max_group == 50



class TestGroupedInput:
    HELD = [("a", 1), ("b", 2), ("a", 3), ("c", 4)]

    def jobs(self, held, fresh_inputs):
        return [JobSpec("cached", identity_mapper, collect_reducer, [fresh], grouped=held)
                for fresh in fresh_inputs]

    @pytest.mark.parametrize("partitions", [1, 7])
    def test_held_inputs_are_mapped_once(self, partitions):
        fresh_inputs = [[("a", 5), ("d", 6)], [], [("b", 7), ("b", 8)]]
        held = GroupedInput([iter(self.HELD)])  # a second read would find it empty
        with Engine(EngineConfig(partitions=partitions)) as engine:
            for index, spec in enumerate(self.jobs(held, fresh_inputs)):
                output, stats = engine.run_job(spec)
                # equal to one job over all records, held ones included
                want = serial_mapreduce(JobSpec("all", identity_mapper, collect_reducer,
                                                [self.HELD, fresh_inputs[index]]))
                assert output == want
                assert stats.reduce_groups == len(want)
                fresh = len(fresh_inputs[index])
                assert stats.map_in == (len(self.HELD) + fresh if index == 0 else fresh)
                assert stats.cached_groups == (0 if index == 0 else 3)
                assert f"cached={stats.cached_groups}" in stats.line()
        assert (held.groups, held.records) == (3, 4)
        assert stats.max_group == 3  # "b": held 2, fresh 7 and 8

    def test_partition_count_must_match(self):
        held = GroupedInput([self.HELD])
        with Engine(EngineConfig(partitions=2)) as engine:
            engine.run_job(self.jobs(held, [[]])[0])
        with Engine(EngineConfig(partitions=3)) as engine, pytest.raises(ValueError):
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
        def broken_mapper(record):
            raise ValueError("boom")

        gc.enable()
        with Engine() as engine, pytest.raises(JobError):
            engine.run_job(JobSpec("broken", broken_mapper, collect_reducer, inputs=[[(1, 2)]]))
        assert gc.isenabled()
