import gc
import random
import sys
import threading

import pytest

from wfsmr.mapreduce import (
    Engine,
    EngineConfig,
    JobError,
    JobSpec,
    PipelineError,
    encode_key,
    gc_paused,
    partition_for,
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
        spec = JobSpec("once", identity_mapper, reducer, [records], partitions=3)
        with Engine() as engine:
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
        spec = wordcount_job(DOCS)
        spec.partitions = 0
        with Engine() as engine:
            with pytest.raises(ValueError):
                engine.run_job(spec)


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

    def test_partition_function_is_stable(self):
        # fixed expectations guard against platform-dependent hashing
        assert partition_for(("a", 1), 7) == partition_for(("a", 1), 7)
        assert encode_key((1, "a", None)) == b"(i1,sa,n)"
        assert encode_key(()) == b"()"
        with pytest.raises(TypeError):
            encode_key(1.5)


class TestPipeline:
    def test_single_stage_equals_run_job(self):
        with Engine() as engine:
            via_pipeline, stats = engine.run_pipeline([wordcount_job(DOCS)])
            direct, _ = engine.run_job(wordcount_job(DOCS))
        assert via_pipeline == direct
        assert len(stats) == 1

    def test_zero_stage_returns_input(self):
        records = {("k", 1), ("j", 2)}
        with Engine() as engine:
            output, stats = engine.run_pipeline([], inputs=records)
        assert output == records
        assert stats == []

    def test_join_then_antijoin_worked_example(self):
        # tagged-record pipeline for one join rule: join a and b on their
        # shared column, then drop results matching c, then d
        a = [(None, ("a", (1, 2))), (None, ("a", (1, 3)))]
        b = [(None, ("b", (2, 4))), (None, ("b", (3, 5)))]
        c = [(None, ("c", (1, 2)))]
        d = [(None, ("d", (2, 3)))]

        def join_mapper(record):
            tag, row = record[1]
            if tag == "a":
                return [(row[1], ("a", row[0]))]
            if tag == "b":
                return [(row[0], ("b", row[1]))]
            raise AssertionError(tag)

        def join_reducer(key, values):
            xs = [v for t, v in values if t == "a"]
            ys = [v for t, v in values if t == "b"]
            return [(None, ("ab", (x, key, y))) for x in xs for y in ys]

        def anti(key_cols, neg_tag):
            def mapper(record):
                tag, row = record[1]
                if tag == neg_tag:
                    return [(row, "neg")]
                return [(tuple(row[i] for i in key_cols), (tag, row))]

            def reducer(key, values):
                kept = []
                for value in values:
                    if value == "neg":
                        return []
                    kept.append(value)
                return [(None, v) for v in kept]

            return mapper, reducer

        m1, r1 = anti((0, 1), "c")
        m2, r2 = anti((1, 2), "d")
        specs = [
            JobSpec("join", join_mapper, join_reducer, [a, b]),
            JobSpec("anti-c", m1, r1, [c]),
            JobSpec("anti-d", m2, r2, [d]),
        ]
        with Engine() as engine:
            output, stats = engine.run_pipeline(specs)
        rows = {row for _, (tag, row) in output}
        assert rows == {(1, 3, 5)}  # X=1, Z=3, Y=5: the final goal p(1,5)
        assert [s.name for s in stats] == ["join", "anti-c", "anti-d"]

    def test_stage_error_carries_index(self):
        def bad_mapper(record):
            raise ValueError("stage blew up")

        specs = [wordcount_job(DOCS), JobSpec("bad", bad_mapper, collect_reducer)]
        with Engine() as engine:
            with pytest.raises(PipelineError) as err:
                engine.run_pipeline(specs)
        assert err.value.stage == 1
        assert err.value.job == "bad"


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

    def test_a_failing_job_restores_the_collector(self):
        def broken_mapper(record):
            raise ValueError("boom")

        gc.enable()
        with Engine() as engine, pytest.raises(JobError):
            engine.run_job(JobSpec("broken", broken_mapper, collect_reducer, inputs=[[(1, 2)]]))
        assert gc.isenabled()
