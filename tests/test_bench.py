import pytest

from wfsmr.bench import builtin_program, chain_levels, gen_chain, gen_cycle, gen_tree
from wfsmr.program import Fact


class TestGenerators:
    def test_cycle_three(self):
        assert gen_cycle(3) == [
            Fact("move", (1, 2)),
            Fact("move", (2, 3)),
            Fact("move", (3, 1)),
        ]

    def test_cycle_self_loop(self):
        assert gen_cycle(1) == [Fact("move", (1, 1))]

    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_cycle_cardinality(self, n):
        assert len(gen_cycle(n)) == n

    def test_cycle_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_cycle(0)

    def test_tree_one(self):
        assert gen_tree(1) == [Fact("move", (1, 2)), Fact("move", (1, 3))]

    def test_tree_three(self):
        assert gen_tree(3) == [
            Fact("move", (1, 2)),
            Fact("move", (1, 3)),
            Fact("move", (2, 4)),
            Fact("move", (2, 5)),
            Fact("move", (3, 6)),
            Fact("move", (3, 7)),
        ]

    @pytest.mark.parametrize("n", [1, 2, 31, 500])
    def test_tree_cardinality(self, n):
        assert len(gen_tree(n)) == 2 * n

    def test_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_tree(0)

    def test_chain_four_two(self):
        assert gen_chain(4, 2) == [
            Fact("b", (1, 3)),
            Fact("b", (2, 4)),
            Fact("b", (3, 5)),
            Fact("b", (4, 6)),
        ]

    def test_chain_smallest(self):
        assert gen_chain(2, 1) == [Fact("b", (1, 2)), Fact("b", (2, 3))]

    def test_chain_levels_and_joins(self):
        assert chain_levels(125, 25) == 5  # allows 4 joins
        assert chain_levels(16, 4) == 4
        assert len(gen_chain(125, 25)) == 125

    def test_chain_requires_k_below_n(self):
        with pytest.raises(ValueError):
            gen_chain(4, 4)
        with pytest.raises(ValueError):
            gen_chain(4, 0)


class TestBuiltinPrograms:
    def test_game_program_is_single_rule(self):
        program = builtin_program("win-not-win")
        assert len(program.rules) == 1
        assert str(program.rules[0]) == "win(X) :- move(X,Y), not win(Y)."

    def test_closure_program_has_five_rules(self):
        program = builtin_program("tc-neg")
        assert len(program.rules) == 5
        assert "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X)." in {str(r) for r in program.rules}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_program("frobnicate")


class TestChainGrowth:
    def test_steps_and_output_grow_polynomially_with_levels(self):
        from wfsmr.fixpoint import solve
        from wfsmr.bench import builtin_program, gen_chain

        program = builtin_program("tc-neg")
        steps = []
        closure_sizes = []
        for levels in (3, 6, 12):
            result = solve(program, gen_chain(10 * levels, 10))
            steps.append(result.stats.inference_steps)
            closure_sizes.append(
                sum(1 for f in result.true_facts.iter_facts() if f.predicate == "tc")
            )
        assert steps == sorted(steps) and steps[-1] > steps[0]
        r1 = closure_sizes[1] / closure_sizes[0]
        r2 = closure_sizes[2] / closure_sizes[1]
        assert r1 > 2 and r2 > 2  # superlinear in the level count
        assert r2 < r1**2  # consecutive ratios stay polynomial, not exponential
