"""A worker process that dies is a named, refunded failure, never a hang.

Every fork fan-out — ``run_many`` workers, ``sharded`` windows — runs on
``repro.api.pool.create_executor``: a worker that dies, or cannot send
its result back, fails its futures instead of leaving a task that never
completes. Each case runs in a child interpreter under a hard deadline,
so a regression fails here instead of hanging the suite; the child
prints one JSON report of the outcomes, the accountant's books and the
child processes still alive.
"""

import json
import os
import subprocess
import sys
import textwrap

DEADLINE_S = 60

PRELUDE = '''
import json, multiprocessing, os, threading

from repro import Bank, FinancialNetwork, PrivacyAccountant, Scenario, StressTest
from repro.api import Engine, RunResult, register_engine


class Releases(Engine):
    name = "test-releases"
    releases_output = True

    def execute(self, program, graph, iterations, config, accountant=None):
        return RunResult(
            engine=self.name,
            program=program.name,
            aggregate=0.0,
            trajectory=[0.0],
            iterations=iterations,
            wall_seconds=0.0,
            epsilon=config.output_epsilon,
        )


class Dies(Releases):
    name = "test-dies"

    def execute(self, program, graph, iterations, config, accountant=None):
        os._exit(9)


class Unpicklable(Releases):
    name = "test-unpicklable"

    def execute(self, program, graph, iterations, config, accountant=None):
        result = super().execute(program, graph, iterations, config, accountant)
        result.extras["lock"] = threading.Lock()
        return result


for engine in (Releases, Dies, Unpicklable):
    register_engine(engine.name, engine)

net = FinancialNetwork()
for bank, cash in enumerate((2.0, 1.0, 1.0, 0.5)):
    net.add_bank(Bank(bank, cash=cash))
for src, dst, amount in ((0, 1, 4.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 1.0)):
    net.add_debt(src, dst, amount)
template = StressTest(net).program("eisenberg-noe")
accountant = PrivacyAccountant(epsilon_max=1.0)
EPSILON = {"fine": 0.1, "doomed": 0.2, "fine-too": 0.15}


def batch_of(doomed_engine):
    engines = {"fine": "test-releases", "doomed": doomed_engine, "fine-too": "test-releases"}
    return [
        Scenario(name, engine=engine, epsilon=EPSILON[name], iterations=1)
        for name, engine in engines.items()
    ]


def report(outcomes, charged=None, **extra):
    ok = {o.name for o in outcomes if o.ok}
    print(json.dumps(dict(
        outcomes=[[o.name, o.error] for o in outcomes],
        # what the books must hold: the releases that happened, in charge order
        kept=sum(epsilon for name, epsilon in EPSILON.items() if name in ok),
        charged=charged,
        spent=accountant.spent,
        reconciled=accountant.reconcile().ok,
        children=len(multiprocessing.active_children()),
        **extra,
    )))
'''


def _run(body):
    """Run ``body`` after the prelude in a child interpreter; its report."""
    child = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=DEADLINE_S,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _assert_named_refunded_reaped(report):
    error = dict(report["outcomes"])["doomed"]
    assert error is not None and "'doomed'" in error
    assert report["spent"] == report["kept"]
    assert report["reconciled"]
    assert report["children"] == 0


def test_worker_death_under_run_many_fails_its_scenario():
    report = _run(
        """
        batch = template.run_many(batch_of("test-dies"), workers=2, accountant=accountant)
        report(batch.outcomes, batch.epsilon_charged)
        """
    )
    assert [name for name, _ in report["outcomes"]] == ["fine", "doomed", "fine-too"]
    assert "worker process died (BrokenProcessPool" in dict(report["outcomes"])["doomed"]
    assert report["charged"] == report["kept"]
    _assert_named_refunded_reaped(report)


def test_worker_death_under_run_many_iter_fails_its_scenario():
    report = _run(
        """
        stream = template.run_many_iter(batch_of("test-dies"), workers=2, accountant=accountant)
        report(list(stream))
        """
    )
    assert sorted(name for name, _ in report["outcomes"]) == ["doomed", "fine", "fine-too"]
    _assert_named_refunded_reaped(report)


def test_a_result_that_cannot_be_sent_back_fails_only_its_scenario():
    report = _run(
        """
        batch = template.run_many(batch_of("test-unpicklable"), workers=2, accountant=accountant)
        report(batch.outcomes, batch.epsilon_charged)
        """
    )
    errors = dict(report["outcomes"])
    assert errors["fine"] is None and errors["fine-too"] is None
    assert "pickle" in errors["doomed"]
    assert report["charged"] == report["kept"] == 0.1 + 0.15
    _assert_named_refunded_reaped(report)


def test_shard_worker_death_fails_the_run_and_refunds_it():
    report = _run(
        """
        import repro.api.sharded as sharded

        def die(payload):
            os._exit(9)

        sharded._shard_step = die
        EPSILON = {"doomed": 0.2}
        options = {"shards": 2, "release": "windowed", "windows": [2]}
        doomed = Scenario(
            "doomed", engine="sharded", engine_options=options, epsilon=0.2, iterations=2
        )
        batch = template.run_many([doomed], workers=1, accountant=accountant)
        session = template.clone().engine("sharded", **options)
        try:
            session.privacy(epsilon=0.2, accountant=accountant).run(iterations=2)
        except Exception as exc:
            direct = type(exc).__name__
        report(batch.outcomes, batch.epsilon_charged, direct=direct)
        """
    )
    assert "BrokenProcessPool" in dict(report["outcomes"])["doomed"]
    assert report["direct"] == "BrokenProcessPool"
    assert report["charged"] == report["kept"] == 0.0
    _assert_named_refunded_reaped(report)
