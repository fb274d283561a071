"""Crash-restart determinism: the durable control plane's contract.

A soak kills the whole serving process (simulator included) at
configured stream times and rebuilds it from the journal plus the
seed-deterministic traffic stream.  The properties pinned here:

* **Soak determinism** — the same seed reproduces the full JSON
  document (and therefore the soak digest) byte for byte, including
  every journal count and the resume digest.
* **Resume-digest stability** — the journal's resume digest is a pure
  function of the seed: re-running the soak yields the identical
  digest, and different seeds diverge.
* **No job lost** — across every kill boundary and device crash, every
  admitted journal row reaches a terminal row, for a spread of kill
  placements and for the multi-GPU front.
* **Loss-free accounting under a generous gate** — with shedding
  effectively disabled and no device faults, the books balance
  exactly: every offered arrival is admitted and completed, despite a
  mid-run process kill.
"""

import pytest

from repro.experiments import SoakConfig, run_soak

# Small but real: one kill, one device crash, open-loop bursty traffic
# over a million-user population (lazily generated).
QUICK = dict(duration=0.3, rate=40.0, kills=(0.12,), device_crashes=(0.06,))


class TestSoakDeterminism:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_same_seed_reproduces_the_document(self, seed):
        first = run_soak(SoakConfig.quick(seed=seed))
        second = run_soak(SoakConfig.quick(seed=seed))
        assert first.ok, first.violations
        assert first.to_json() == second.to_json()
        assert first.soak_digest() == second.soak_digest()

    def test_resume_digest_is_seed_stable(self):
        first = run_soak(SoakConfig.quick(seed=3))
        second = run_soak(SoakConfig.quick(seed=3))
        for a, b in zip(first.runs, second.runs):
            assert a.resume_digest == b.resume_digest

    def test_different_seeds_diverge(self):
        a = run_soak(SoakConfig.quick(seed=0))
        b = run_soak(SoakConfig.quick(seed=11))
        assert a.soak_digest() != b.soak_digest()


class TestNoJobLost:
    @pytest.mark.parametrize(
        "kills",
        [(0.08,), (0.16,), (0.1, 0.2)],
        ids=["early-kill", "late-kill", "double-kill"],
    )
    def test_kill_placement_never_loses_jobs(self, kills):
        result = run_soak(
            SoakConfig.quick(seed=5, kills=kills)
        )
        assert result.ok, result.violations
        for run in result.runs:
            # Terminal rows cover the admitted set exactly.
            assert run.completed + run.failed + run.shed >= run.admitted
            assert run.incarnations == len(kills) + 1

    def test_both_scheduler_kinds_full_shape(self):
        result = run_soak(SoakConfig(seed=0, **QUICK))
        assert result.ok, result.violations
        assert [run.scheduler for run in result.runs] == ["fair", "timer"]

    def test_multi_gpu_front(self):
        result = run_soak(SoakConfig.quick(seed=2, gpus=2))
        assert result.ok, result.violations


class TestLossFreeAccounting:
    def test_generous_gate_balances_exactly(self):
        # No device faults and a gate that admits everything: the only
        # disruption is the process kill, and the journal must show
        # every offered arrival admitted and completed.
        result = run_soak(
            SoakConfig.quick(
                seed=7,
                device_crashes=(),
                max_active=64,
                max_pending_total=10_000,
                max_pending_per_tenant=10_000,
            )
        )
        assert result.ok, result.violations
        for run in result.runs:
            assert run.rejected == 0
            assert run.failed == 0
            assert run.shed == 0
            assert run.admitted == run.offered
            assert run.completed == run.admitted
            assert run.offered > 0


# Soak and resume digests of ``SoakConfig.quick`` on one GPU and on the
# multi-GPU front, computed before the front moved into ``build_stack``.
PINNED_QUICK = {
    (0, 1): ("9226409a986ca1d42e6b7cde184d6b3954d43d1ce4a84f9ce9a184eab49d3e4f",
             "bd8fc3137b9858ebac8fe2f84d62a3f8d519f5931bc5b411a145287d8b8910d8"),
    (1, 1): ("6124856affd616dd6bad55bf6519608ea831e22f1d64d98f1cc6c32276875a7b",
             "d84b783dc4ccaee4d9b5d8b8699f5808a80ab209d735a2f133e80ecde820679f"),
    (2, 1): ("b6719fa93cf221b4330b66bf9444703df5c6c7fd3ba908bf4490cb5a992a45f7",
             "1db63710cd54e4b837b20c3b3db2658c89f1f88b7d63be50cb29f8dc4e753d8a"),
    (3, 1): ("b20efa999c61f5043a54425fb0f331c3442ffd7efaf9d02c0c65dd6bfa870305",
             "e4bbc7ec2ba310c959bdad1ec7ddc741fb0e6b6d99788914cc754a3ede32c276"),
    (4, 1): ("ced138602f85aae65b4213cb71b614cc37a8520d0c24e87c5c09650701f3be8d",
             "c41cca3bf6264be968af75627e61c87225c69a1f4027ff48c932050390116beb"),
    (0, 2): ("24438d102be65906e58a52db8f0bfd36507c0a17cf9560ce1fdff96d47a9dc29",
             "f674037a6ede77e4e0a84422c5cd9e4b8735a5c7dbb2406638c9e2bb05089d9f"),
    (1, 2): ("d209712e2fd0a2df4aba17dfc31619f1f365acd4bd66f5f0b50e17517bdb6e91",
             "30d04caf0699f39a560ebe588fc18fb9044528cca413a0e6d5708c68347cb590"),
    (2, 2): ("b5236176d6b805c497905a08f8db1802d3fa2dd05875faa1ebdd6d83d7ad9a61",
             "d51006969bd5cb9551f3c58bde1bd0be6856462c986b3b728df778e9fd70d7d7"),
    (3, 2): ("c69e69ed5f50346241c42383ced29905f846fb048e4d13abfdb4093e3f12992f",
             "493249d859b8cc5fd9bad41295467876be8344e2943398c606e005fdb7a7b89d"),
    (4, 2): ("99932c564850109800984b27a156cea9733031d29ff367fb9b95c865212c32a2",
             "37eb0f97c156b0dcffce645d788bf97be122467fb88536b149d4c7d1bb1c8751"),
}


@pytest.mark.parametrize(
    "seed, gpus", sorted(PINNED_QUICK), ids=lambda v: str(v)
)
def test_quick_soak_digests_pinned(seed, gpus):
    result = run_soak(SoakConfig.quick(seed=seed, gpus=gpus))
    assert result.ok, result.violations
    soak_digest, resume_digest = PINNED_QUICK[(seed, gpus)]
    assert result.soak_digest() == soak_digest
    assert [run.resume_digest for run in result.runs] == [resume_digest]
