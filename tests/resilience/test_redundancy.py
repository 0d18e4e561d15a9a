"""The redundancy factory: one verdict for every configuration entry point.

Every replicas x placement x stable_fallback x recovery combination goes
through the campaign config, the service config, a checkpoint store with
an executor, and the CLI.  Each must give the factory's verdict, and a
rejection must carry the factory's message, which names the conflict.
"""

from itertools import product

import pytest

from repro.apps.data import CGWorkload
from repro.apps.resilient.cg import CGResilient
from repro.chaos import CampaignConfig
from repro.cli import main
from repro.resilience.executor import IterativeExecutor
from repro.resilience.placement import make_placement
from repro.resilience.snapshot import DISK, make_redundancy
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, Runtime
from repro.service import ServiceConfig

COMBOS = list(
    product(
        (0, 1, 2, 3),
        ("ring", "spread", "stride:2", "parity:2", "parity:4"),
        (False, True),
        ("checkpoint", "reconstruct"),
    )
)


def conflict(replicas, placement, recovery):
    """Phrases the rejection must contain, or None for a valid combination."""
    parity = placement.startswith("parity")
    if parity and replicas > 1:
        return ("placement=parity", f"replicas must be <= 1, got {replicas}")
    if recovery == "reconstruct" and parity:
        return ("recovery='reconstruct'", "parity")
    if recovery == "reconstruct" and replicas == 0:
        return ("recovery='reconstruct'", "at least one replica")
    return None


def verdict(build):
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


def executor(replicas, placement, stable, recovery):
    rt = Runtime(6, cost=CostModel.zero(), resilient=True)
    app = CGResilient(rt, CGWorkload(rows_per_place=8, stride=3, iterations=2))
    store = AppResilientStore(rt, replicas, make_placement(placement), stable)
    IterativeExecutor(
        rt,
        app,
        store=store,
        replicas=replicas,
        placement=make_placement(placement),
        stable_fallback=stable,
        recovery=recovery,
    )


@pytest.mark.parametrize("replicas,placement,stable,recovery", COMBOS)
def test_every_entry_point_gives_the_factory_verdict(
    replicas, placement, stable, recovery, capsys
):
    expected = verdict(lambda: make_redundancy(replicas, placement, stable, recovery=recovery))
    phrases = conflict(replicas, placement, recovery)
    assert (expected is None) == (phrases is None)
    for phrase in phrases or ():
        assert phrase in expected

    verdicts = {
        "campaign": verdict(
            lambda: CampaignConfig(
                app="cg",
                replicas=replicas,
                placement=placement,
                stable_fallback=stable,
                recovery=recovery,
            )
        ),
        "service": verdict(
            lambda: ServiceConfig(
                apps=("cg",),
                replicas=replicas,
                placement=placement,
                stable_fallback=stable,
                cg_recovery=recovery,
            )
        ),
        "executor": verdict(lambda: executor(replicas, placement, stable, recovery)),
    }
    argv = ["run", "cg", "--places", "4", "--iterations", "1", "--ckpt-interval", "1"]
    argv += ["--replicas", str(replicas), "--placement", placement, "--recovery", recovery]
    try:
        code = main(argv + (["--stable-fallback"] if stable else []))
    except SystemExit as exit:
        code = exit.code
    err = capsys.readouterr().err
    verdicts["cli"] = err.strip().removeprefix("error: ") if code == 2 else None
    assert code in ((2,) if expected else (0,))
    assert verdicts == dict.fromkeys(verdicts, expected)


def test_unset_knobs_inherit_from_the_base():
    base = make_redundancy(3, "stride:2", stable_fallback=True)
    spread = make_redundancy(placement="spread", base=base)
    assert (spread.backups, spread.placement.name, spread.stable_fallback) == (3, "spread", True)
    parity = make_redundancy(placement="parity:2", base=base)
    assert parity.parity and parity.backups == 0 and parity.stable_fallback
    assert make_redundancy(disk_only=True, base=base).ladder(4) == (DISK,)
