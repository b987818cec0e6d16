"""Rule-by-rule tests for the determinism linter (REP001-REP007).

Each rule gets a bad fixture that must fire and a good fixture that must
stay silent, plus the scope exemptions the rule ships with (entry points,
test code, the seeded-core boundary for wall-clock calls).
"""

from __future__ import annotations

import textwrap
from typing import List

from repro.analysis.linter import Finding, LintConfig, RULES, lint_source


def rules_of(findings: List[Finding]) -> List[str]:
    return [f.rule for f in findings]


def lint(source: str, path: str = "src/repro/rl/example.py") -> List[Finding]:
    """Lint a dedented snippet as if it lived at ``path`` (library code)."""
    return lint_source(textwrap.dedent(source), path=path)


class TestRuleTable:
    def test_all_eight_rules_registered(self):
        assert sorted(RULES) == [f"REP00{i}" for i in range(1, 9)]

    def test_descriptions_are_nonempty(self):
        assert all(RULES[rule] for rule in RULES)


class TestREP001UnseededRng:
    def test_unseeded_default_rng_fires(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert rules_of(findings) == ["REP001"]

    def test_seeded_default_rng_is_fine(self):
        assert lint(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """
        ) == []

    def test_seed_forwarding_counts_as_seeded(self):
        assert lint(
            """
            import numpy as np
            def build(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_unseeded_legacy_randomstate_fires(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.RandomState()
            """
        )
        assert "REP001" in rules_of(findings)

    def test_unseeded_stdlib_random_fires(self):
        findings = lint(
            """
            import random
            rng = random.Random()
            """
        )
        assert rules_of(findings) == ["REP001"]

    def test_entry_points_are_exempt(self):
        source = """
            import numpy as np
            rng = np.random.default_rng()
            """
        assert lint(source, path="src/repro/cli.py") == []
        assert lint(source, path="src/repro/__main__.py") == []

    def test_from_import_alias_is_resolved(self):
        findings = lint(
            """
            from numpy.random import default_rng as make_rng
            rng = make_rng()
            """
        )
        assert rules_of(findings) == ["REP001"]


class TestREP002GlobalRngCalls:
    def test_np_random_module_function_fires(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.uniform(0.0, 1.0)
            """
        )
        assert rules_of(findings) == ["REP002"]

    def test_stdlib_random_module_function_fires(self):
        findings = lint(
            """
            import random
            x = random.randint(1, 6)
            """
        )
        assert rules_of(findings) == ["REP002"]

    def test_generator_method_is_fine(self):
        assert lint(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.uniform(0.0, 1.0)
            """
        ) == []

    def test_seedsequence_and_generator_constructors_are_fine(self):
        assert lint(
            """
            import numpy as np
            ss = np.random.SeedSequence(7)
            children = ss.spawn(3)
            """
        ) == []


class TestREP003WallClock:
    def test_time_time_in_core_fires(self):
        findings = lint(
            """
            import time
            stamp = time.time()
            """,
            path="src/repro/sim/simulator.py",
        )
        assert rules_of(findings) == ["REP003"]

    def test_datetime_now_in_core_fires(self):
        findings = lint(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            path="src/repro/core/env.py",
        )
        assert rules_of(findings) == ["REP003"]

    def test_uuid4_and_urandom_fire(self):
        findings = lint(
            """
            import os
            import uuid
            token = uuid.uuid4()
            noise = os.urandom(8)
            """,
            path="src/repro/nn/kfac.py",
        )
        assert rules_of(findings) == ["REP003", "REP003"]

    def test_outside_seeded_core_is_allowed(self):
        source = """
            import time
            stamp = time.time()
            """
        # Telemetry/eval may read the wall clock (run manifests, timing).
        assert lint(source, path="src/repro/telemetry/recorder.py") == []
        assert lint(source, path="src/repro/parallel/timing.py") == []


class TestREP004UnorderedIteration:
    def test_iterating_a_set_literal_fires(self):
        findings = lint(
            """
            for name in {"v1", "v2"}:
                print(name)
            """
        )
        assert rules_of(findings) == ["REP004"]

    def test_iterating_set_call_fires(self):
        findings = lint(
            """
            def f(items):
                return [x for x in set(items)]
            """
        )
        assert rules_of(findings) == ["REP004"]

    def test_sorted_set_is_fine(self):
        assert lint(
            """
            def f(items):
                return [x for x in sorted(set(items))]
            """
        ) == []

    def test_plain_dict_iteration_is_fine(self):
        # Python dicts preserve insertion order; only sets are unordered.
        assert lint(
            """
            def f(mapping):
                return [k for k in mapping]
            """
        ) == []

    def test_sum_and_fsum_over_unordered_fire(self):
        findings = lint(
            """
            import math
            from math import fsum
            def f(delays, mapping):
                return sum(set(delays)) + math.fsum(mapping.keys()) + fsum({1.0, 2.0})
            """
        )
        assert rules_of(findings) == ["REP004"] * 3

    def test_sum_over_sorted_set_or_generator_is_fine(self):
        # sorted() fixes the order; a generator is checked at its own for
        # clause, where iterating a plain name passes.
        assert lint(
            """
            import math
            def f(delays):
                return sum(sorted(set(delays))) + math.fsum(d for d in delays)
            """
        ) == []


class TestREP005FloatEquality:
    def test_float_literal_equality_fires(self):
        findings = lint(
            """
            def f(x):
                return x == 0.5
            """
        )
        assert rules_of(findings) == ["REP005"]

    def test_float_inequality_fires(self):
        findings = lint(
            """
            def f(x):
                return x != 1.0
            """
        )
        assert rules_of(findings) == ["REP005"]

    def test_ordering_comparisons_are_fine(self):
        assert lint(
            """
            def f(x):
                return x <= 0.5 or x > 1.5
            """
        ) == []

    def test_integer_equality_is_fine(self):
        assert lint(
            """
            def f(x):
                return x == 0
            """
        ) == []

    def test_test_code_is_exempt(self):
        source = """
            def test_exact(x):
                assert x == 0.5
            """
        assert lint(source, path="tests/sim/test_thing.py") == []


class TestREP006MutableDefaults:
    def test_list_default_fires(self):
        findings = lint(
            """
            def f(items=[]):
                return items
            """
        )
        assert rules_of(findings) == ["REP006"]

    def test_dict_and_set_defaults_fire(self):
        findings = lint(
            """
            def f(a={}, b=set()):
                return a, b
            """
        )
        assert rules_of(findings) == ["REP006", "REP006"]

    def test_none_and_tuple_defaults_are_fine(self):
        assert lint(
            """
            def f(a=None, b=(), c="x", d=0):
                return a, b, c, d
            """
        ) == []


class TestREP007BareAssert:
    def test_bare_assert_in_library_code_fires(self):
        findings = lint(
            """
            def f(x):
                assert x > 0
                return x
            """
        )
        assert rules_of(findings) == ["REP007"]

    def test_asserts_in_tests_are_idiomatic(self):
        source = """
            def test_f():
                assert 1 + 1 == 2
            """
        assert lint(source, path="tests/test_math.py") == []
        assert lint(source, path="benchmarks/bench_fig6.py") == []


class TestSuppressions:
    def test_same_line_suppression(self):
        assert lint(
            """
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[REP001] interactive tool
            """
        ) == []

    def test_line_above_suppression(self):
        assert lint(
            """
            import numpy as np
            # repro: allow[REP001] interactive tool
            rng = np.random.default_rng()
            """
        ) == []

    def test_suppression_is_rule_specific(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[REP002] wrong rule
            """
        )
        assert rules_of(findings) == ["REP001"]

    def test_multiple_rules_in_one_marker(self):
        assert lint(
            """
            def f(items=[]):  # repro: allow[REP006, REP007] legacy signature
                assert items is not None
                return items
            """
        ) == []


class TestFindings:
    def test_syntax_error_reports_rep000(self):
        findings = lint_source("def broken(:\n", path="src/repro/x.py")
        assert rules_of(findings) == ["REP000"]

    def test_fingerprint_is_stable_across_line_shifts(self):
        a = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="src/repro/x.py",
        )[0]
        b = lint_source(
            "import numpy as np\n\n\nrng = np.random.default_rng()\n",
            path="src/repro/x.py",
        )[0]
        assert a.line != b.line
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_paths(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        a = lint_source(src, path="src/repro/a.py")[0]
        b = lint_source(src, path="src/repro/b.py")[0]
        assert a.fingerprint != b.fingerprint

    def test_select_restricts_rules(self):
        source = textwrap.dedent(
            """
            import numpy as np
            def f(items=[]):
                assert items is not None
                return np.random.default_rng()
            """
        )
        config = LintConfig(select=("REP006",))
        findings = lint_source(source, path="src/repro/x.py", config=config)
        assert rules_of(findings) == ["REP006"]

    def test_findings_are_sorted_and_render(self):
        source = textwrap.dedent(
            """
            import numpy as np
            def f(items=[]):
                assert items
                return np.random.default_rng()
            """
        )
        findings = lint_source(source, path="src/repro/x.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        for f in findings:
            rendered = f.render()
            assert f.rule in rendered and "src/repro/x.py" in rendered
