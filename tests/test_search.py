"""Coverage-guided gadget search: map, corpus, scheduler, engine.

The load-bearing claims under test: the coverage map and corpus are
order- and worker-count-invariant (bit-identical replay digests across
1/4 workers), a checkpointed search resumes into the exact trajectory
of an uninterrupted one, damaged corpus entries are misses (never
crashes), the ``search.corpus.write`` chaos point cannot change
results, and the blind baseline reproduces campaign screening bit for
bit.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.fuzzer import CampaignError, FuzzingCampaign
from repro.core.fuzzer import campaign as campaign_mod
from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.grammar import (LEGACY_SIGNATURE_LENGTH, Gadget,
                                       normalize_signature)
from repro.cpu import batch
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisorPolicy
from repro.search import (Corpus, CorpusEntry, CoverageMap, CoverageSearch,
                          FrontierScheduler, SearchError, blind_search,
                          evals_to_cover, feature_id, gadget_digest)
from repro.search.corpus import build_name_index
from repro.search.engine import (SearchTask, balanced_chunks,
                                 evaluate_search_chunk)
from repro.telemetry import merge_run
from repro.telemetry import runtime as telemetry

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

MAX_EVALS = 200


@pytest.fixture(autouse=True)
def _disarmed():
    resilience.disarm()
    yield
    resilience.disarm()


@pytest.fixture(scope="module")
def events(fuzz_events):
    return np.array(fuzz_events)


@pytest.fixture(scope="module")
def search_config(make_fuzzer, events):
    return make_fuzzer().search_config(events)


@pytest.fixture(scope="module")
def baseline(search_config):
    """The single-worker, no-corpus-dir search everything must match."""
    return CoverageSearch(search_config, max_evals=MAX_EVALS).run()


def result_key(result):
    """Everything that must be equal across equivalent searches."""
    return (result.corpus_replay_digest, result.coverage_digest,
            result.first_cover, result.responders, result.evals,
            result.rounds)


# -- coverage map ---------------------------------------------------------


class TestCoverageMap:
    def test_feature_id_is_stable_and_discriminating(self):
        fid = feature_id(3, "l1d", 1)
        assert fid == feature_id(3, "l1d", 1)
        assert 0 <= fid < 2 ** 64
        assert len({fid, feature_id(3, "l1d", -1), feature_id(3, "l2", 1),
                    feature_id(4, "l1d", 1)}) == 4

    def test_observe_counts_new_features(self):
        cmap = CoverageMap()
        assert cmap.observe([1, 2, 3]) == 3
        assert cmap.observe([2, 3, 4]) == 1
        assert len(cmap) == 4
        assert cmap.new_features([3, 4, 5, 5]) == (5,)
        assert cmap.count(2) == 2

    def test_digest_is_order_invariant(self):
        a, b = CoverageMap(), CoverageMap()
        a.observe([5, 9, 1])
        a.observe([7])
        b.observe([7, 1])
        b.observe([9, 5])
        assert a.digest() == b.digest()

    def test_rarity_prefers_sparse_features(self):
        cmap = CoverageMap()
        for _ in range(9):
            cmap.observe([1])
        cmap.observe([1, 2])
        assert cmap.rarity([2]) > cmap.rarity([1])
        assert cmap.rarity([]) == 0.0

    def test_payload_round_trip(self):
        cmap = CoverageMap()
        cmap.observe([3, 1])
        cmap.observe([1])
        restored = CoverageMap.from_payload(cmap.to_payload())
        assert restored.digest() == cmap.digest()
        assert restored.count(1) == 2


# -- corpus ---------------------------------------------------------------


def make_entry(names, features=(1, 2), responses=((5, 2.0),), near=(9,)):
    names = tuple(names)
    return CorpusEntry(digest=gadget_digest((), names), reset=(),
                       trigger=names, features=tuple(features),
                       responses=tuple(responses), near=tuple(near))


class TestCorpus:
    def test_persist_and_load_round_trip(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        entry = make_entry(["nop_1"])
        assert corpus.add(entry)
        assert not corpus.add(entry)  # duplicate digest
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == 1
        assert reloaded.replay_digest() == corpus.replay_digest()
        assert reloaded.get(entry.digest) == entry

    def test_damaged_entries_are_misses_never_crashes(self, tmp_path):
        directory = tmp_path / "corpus"
        corpus = Corpus(directory)
        corpus.add(make_entry(["nop_1"]))
        good = make_entry(["pause_1"])
        corpus.add(good)
        # Torn JSON, a digest/content mismatch, and a misnamed file.
        (directory / f"{make_entry(['lfence_1']).digest}.json").write_text(
            '{"digest": "torn', encoding="utf-8")
        tampered = make_entry(["mfence_1"])
        payload = tampered.to_payload()
        payload["trigger"] = ["sfence_1"]
        (directory / f"{tampered.digest}.json").write_text(
            json.dumps(payload), encoding="utf-8")
        reloaded = Corpus(directory)
        assert reloaded.load() == 2
        assert reloaded.misses == 2
        assert sorted(reloaded.entries) == sorted(corpus.entries)

    def test_replay_digest_is_order_invariant(self):
        a, b = Corpus(), Corpus()
        first, second = make_entry(["nop_1"]), make_entry(["pause_1"])
        a.add(first)
        a.add(second)
        b.add(second)
        b.add(first)
        assert a.replay_digest() == b.replay_digest()
        assert a.replay_digest() != Corpus().replay_digest()

    def test_materialize_rebuilds_the_gadget(self, amd_catalog):
        legal = default_cleanup("amd-epyc-7252").legal
        by_name = build_name_index(legal)
        name = legal[0].name
        gadget = make_entry([name]).materialize(by_name)
        assert gadget.trigger[0] is by_name[name]


# -- scheduler ------------------------------------------------------------


class TestFrontierScheduler:
    def test_admission_energy_scales_with_new_coverage(self):
        sched = FrontierScheduler()
        small = sched.admit("a", features=(1,), near=(), new_features=1)
        big = sched.admit("b", features=(2, 3), near=(), new_features=40)
        assert big.energy > small.energy
        assert big.energy <= sched.max_energy

    def test_credit_rewards_and_decays(self):
        sched = FrontierScheduler()
        state = sched.admit("a", features=(1,), near=(), new_features=1)
        before = state.energy
        sched.credit("a", admitted_children=2)
        assert state.energy > before
        for _ in range(50):
            sched.credit("a", admitted_children=0)
        assert state.energy == sched.min_energy
        sched.credit("missing", admitted_children=1)  # no-op

    def test_near_miss_set_cover_bonus(self):
        sched = FrontierScheduler()
        sched.admit("a", features=(1,), near=(), new_features=1)
        sched.admit("b", features=(2,), near=(17,), new_features=1)
        cmap = CoverageMap()
        cmap.observe([1])
        cmap.observe([2])
        picked = sched.select(1, cmap, uncovered_events=(17,))
        assert picked[0].digest == "b"
        # Once event 17 is covered the bonus vanishes and ties break
        # on digest.
        picked = sched.select(2, cmap, uncovered_events=())
        assert [s.digest for s in picked] == ["a", "b"]

    def test_payload_round_trip(self):
        sched = FrontierScheduler()
        sched.admit("a", features=(1, 2), near=(3,), new_features=2)
        sched.credit("a", admitted_children=1)
        restored = FrontierScheduler()
        restored.restore(sched.to_payload())
        assert restored.seeds["a"] == sched.seeds["a"]

    def test_decay_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            FrontierScheduler(decay=1.0)


# -- gadget signature compatibility (satellite) ---------------------------


class TestGadgetSignature:
    @pytest.fixture(scope="class")
    def specs(self):
        return default_cleanup("amd-epyc-7252").legal[:4]

    def test_signature_leads_with_sequence_lengths(self, specs):
        gadget = Gadget(reset=(specs[0], specs[1]), trigger=(specs[2],))
        assert len(gadget.signature) == 6
        assert gadget.signature[:2] == (2, 1)
        assert gadget.signature[2:] == gadget.legacy_signature
        assert len(gadget.legacy_signature) == 4

    def test_lengths_separate_otherwise_equal_gadgets(self, specs):
        short = Gadget(reset=(), trigger=(specs[0],))
        long = Gadget(reset=(), trigger=(specs[0], specs[0]))
        assert short.legacy_signature == long.legacy_signature
        assert short.signature != long.signature

    def test_normalize_signature_accepts_both_shapes(self, specs):
        gadget = Gadget(reset=(specs[0],), trigger=(specs[1],))
        sig = gadget.signature
        assert normalize_signature(sig) == sig
        upgraded = normalize_signature(gadget.legacy_signature)
        assert upgraded[:2] == (LEGACY_SIGNATURE_LENGTH,
                                LEGACY_SIGNATURE_LENGTH)
        assert upgraded[2:] == gadget.legacy_signature
        with pytest.raises(ValueError):
            normalize_signature((1, 2, 3))


# -- cleanup memoization telemetry (satellite) ----------------------------


def test_cleanup_builds_counter_ticks_once_per_build():
    cached = campaign_mod._CLEANUP_CACHE.pop("amd-epyc-7252", None)
    try:
        with telemetry.session(trace_dir=None, process="main"):
            default_cleanup("amd-epyc-7252")
            default_cleanup("amd-epyc-7252")
            counters = telemetry.metrics().snapshot()["counters"]
        assert counters["fuzz.cleanup_builds"] == 1.0
    finally:
        if cached is not None:
            campaign_mod._CLEANUP_CACHE["amd-epyc-7252"] = cached


# -- the search engine ----------------------------------------------------


class TestCoverageSearch:
    def test_covers_events_and_collects_responders(self, baseline, events):
        assert baseline.evals >= MAX_EVALS
        assert baseline.rounds > 1
        assert baseline.covered_count > 0
        assert set(baseline.covered_events) <= set(int(e) for e in events)
        for event, mark in baseline.first_cover.items():
            assert 1 <= mark <= baseline.evals
            assert baseline.responders[event]
        assert baseline.corpus_size > 0
        assert baseline.coverage_features > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, search_config,
                                                baseline, workers):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                workers=workers).run()
        assert result_key(result) == result_key(baseline)
        assert {i: g.name for i, g in result.gadgets.items()} \
            == {i: g.name for i, g in baseline.gadgets.items()}

    def test_corpus_dir_mirrors_admissions(self, search_config, baseline,
                                           tmp_path):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus").run()
        assert result_key(result) == result_key(baseline)
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == result.corpus_size
        assert reloaded.replay_digest() == result.corpus_replay_digest

    def test_resume_matches_uninterrupted_run(self, search_config,
                                              baseline, tmp_path):
        # Stop early via target_events (not part of the checkpoint
        # fingerprint), then resume to the full budget.
        interrupted = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                     checkpoint_dir=tmp_path,
                                     target_events=1).run()
        assert interrupted.evals < MAX_EVALS
        resumed = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                 checkpoint_dir=tmp_path,
                                 resume=True).run()
        assert result_key(resumed) == result_key(baseline)

    def test_checkpoint_fingerprint_mismatch_is_loud(self, search_config,
                                                     tmp_path):
        CoverageSearch(search_config, max_evals=80,
                       checkpoint_dir=tmp_path, target_events=1).run()
        with pytest.raises(SearchError, match="different search"):
            CoverageSearch(search_config, max_evals=81,
                           checkpoint_dir=tmp_path, resume=True).run()

    def test_batch_counters_invariant_to_workers_and_history(
            self, search_config, tmp_path):
        """Merged batch.evals / batch.fallback_scalar are a function of
        the search alone: parent-side minimization trials must not hit
        archetype-memo entries left by whatever ran in this process."""
        counts = []
        for run, workers in enumerate((1, 2, 1, 2)):
            trace_dir = tmp_path / f"run-{run}"
            with telemetry.session(trace_dir=trace_dir):
                CoverageSearch(search_config, max_evals=MAX_EVALS,
                               workers=workers).run()
            counters = merge_run(trace_dir,
                                 write=False).metrics["counters"]
            counts.append((counters["batch.evals"],
                           counters["batch.fallback_scalar"]))
        assert counts[0][1] > 0
        assert counts == [counts[0]] * len(counts)

    def test_rejects_bad_budgets(self, search_config):
        with pytest.raises(SearchError):
            CoverageSearch(search_config, max_evals=0)
        with pytest.raises(SearchError):
            CoverageSearch(search_config, max_evals=10, workers=0)


def batch_counts(trace_dir):
    counters = merge_run(trace_dir, write=False).metrics["counters"]
    return counters["batch.evals"], counters["batch.fallback_scalar"]


class TestSearchMemo:
    """One screening memo per search: chunks start from the round's
    memo, and the parent merges their new entries in chunk order."""

    @staticmethod
    def sample_tasks(start, count):
        return [SearchTask(eval_index=i, kind="sample", round_index=0,
                           sample_index=i)
                for i in range(start, start + count)]

    def test_prefilled_memo_leaves_outcomes_unchanged(self, search_config):
        tasks = self.sample_tasks(0, 48)
        cold, learned = evaluate_search_chunk(search_config, tasks)
        assert 0 < len(learned) < len(tasks)
        # Its own entries: every measurement is rebuilt, none stored.
        warm, stored = evaluate_search_chunk(search_config, tasks,
                                             memo=learned)
        assert warm == cold
        assert stored == {}
        # Another chunk's entries: some hits, and only new keys stored.
        _, other = evaluate_search_chunk(search_config,
                                         self.sample_tasks(48, 48))
        mixed, stored = evaluate_search_chunk(search_config, tasks,
                                              memo=other)
        assert mixed == cold
        assert not set(stored) & set(other)
        assert len(stored) < len(learned)

    def test_chunks_are_balanced_and_contiguous(self):
        assert [s.count for s in balanced_chunks(100, 64)] == [50, 50]
        assert [s.count for s in balanced_chunks(130, 64)] == [44, 43, 43]
        assert [s.count for s in balanced_chunks(64, 64)] == [64]
        shards = balanced_chunks(201, 16)
        assert [s.index for s in shards] == list(range(len(shards)))
        assert [s.start for s in shards] == [
            sum(t.count for t in shards[:i]) for i in range(len(shards))]
        assert len(shards) == 13 and sum(s.count for s in shards) == 201
        with pytest.raises(ValueError):
            balanced_chunks(0, 16)

    def test_counters_invariant_under_retries_and_bisection(
            self, search_config, tmp_path):
        """Round 0 runs chunks @0 and @40.  A kill on @0's first attempt
        forces a retry (a pool rebuild at 2 workers, a demoted raise at
        1); a persistent raise on @40 exhausts its retries, bisects and
        quarantines eval 40.  Neither fault breaks the pool twice, so
        the chunk partition, and with it the merged batch counters, is
        the same at 1 and 2 workers."""
        policy = SupervisorPolicy(backoff_base=0.005, backoff_cap=0.02,
                                  seed=CHAOS_SEED)
        plan = FaultPlan(seed=CHAOS_SEED, faults=(
            FaultSpec(point="search.chunk", mode="kill", times=1,
                      match=(0,)),
            FaultSpec(point="search.chunk", mode="raise", times=0,
                      match=(40,))))
        counts = []
        for workers in (1, 2):
            trace_dir = tmp_path / f"workers-{workers}"
            search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                    workers=workers, fault_plan=plan,
                                    policy=policy)
            with telemetry.session(trace_dir=trace_dir):
                search.run()
            report = search.report
            assert report.retries > 0 and report.bisections > 0
            assert [q.gadget_index for q in report.quarantined] == [40]
            if workers == 2:
                assert report.pool_restarts >= 1
            counts.append(batch_counts(trace_dir))
        assert counts[0][1] > 0
        assert counts[0] == counts[1]

    def test_memo_cap_keeps_digests_and_counters(self, search_config,
                                                 baseline, monkeypatch,
                                                 tmp_path):
        with telemetry.session(trace_dir=tmp_path / "uncapped"):
            CoverageSearch(search_config, max_evals=MAX_EVALS).run()
        uncapped = batch_counts(tmp_path / "uncapped")
        monkeypatch.setattr(batch, "MEMO_CAP", 16)
        counts = []
        for workers in (1, 2):
            trace_dir = tmp_path / f"capped-{workers}"
            search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                    workers=workers)
            with telemetry.session(trace_dir=trace_dir):
                result = search.run()
            assert result_key(result) == result_key(baseline)
            assert len(search._memo) == 16
            counts.append(batch_counts(trace_dir))
        assert counts[0] == counts[1]
        assert counts[0][0] == uncapped[0]
        assert counts[0][1] > uncapped[1]


class TestSearchTrace:
    """Search spans: the same structure at any worker count, and a
    ``search.run`` its children account for."""

    PARENT_SPANS = ("search.plan", "search.evaluate", "search.reduce")
    CHUNK_SPANS = ("search.chunk", "search.mutate", "search.measure",
                   "search.extract")

    @pytest.fixture(scope="class")
    def traced(self, search_config, tmp_path_factory):
        runs = {}
        for workers in (1, 2):
            trace_dir = tmp_path_factory.mktemp(f"search-trace-{workers}")
            with telemetry.session(trace_dir=trace_dir):
                result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                        workers=workers).run()
            runs[workers] = (result, merge_run(trace_dir, write=False))
        return runs

    def test_span_structure_invariant_to_workers(self, traced):
        (result, one), (_, two) = traced[1], traced[2]
        counts = one.span_counts()
        assert counts == two.span_counts()
        assert counts["search.run"] == 1
        for name in self.PARENT_SPANS:
            assert counts[name] == result.rounds
        chunks = counts["search.chunk"]
        assert chunks >= result.rounds
        assert all(counts[name] == chunks for name in self.CHUNK_SPANS)
        assert counts["search.minimize"] > 0

        def shape(run):
            return [(s.process, s.span_id, s.parent_id, s.name)
                    for s in run.spans]
        assert shape(one) == shape(two)

    def test_children_cover_search_run(self, traced):
        for _, run in traced.values():
            (root,) = [s for s in run.spans if s.name == "search.run"]
            children = [s for s in run.spans
                        if s.process == root.process
                        and s.parent_id == root.span_id]
            assert {s.name for s in children} == set(self.PARENT_SPANS)
            covered = sum(s.duration_s for s in children)
            assert covered >= 0.9 * root.duration_s


class TestDigestPin:
    """``repro-aegis search --seed 7 --budget 300`` over every
    guest-sensitive AMD event, pinned across commits.  CI's
    search-smoke legs compare worker counts within one commit; these
    values were recorded with the per-feature hashing extractor and
    uncached spec names, so they also hold the search to its earlier
    behaviour."""

    DIGESTS = {
        "corpus_replay_digest":
            "0bcafc3d938d4003aa99cee0038a699d"
            "4222aec806b888db9fa45cb844a7a68f",
        "coverage_digest":
            "cdee3e80fa91c10e582eb8cf3085d8c1"
            "0447c253b2ee6ec600c45df7ddf03d83",
        "evals": 320,
        "corpus_size": 58,
        "coverage_features": 258,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_digests_match_recorded(self, workers, tmp_path):
        from repro.cli import main
        out = tmp_path / "digests.json"
        assert main(["search", "--seed", "7", "--budget", "300",
                     "--workers", str(workers), "--digest-out", str(out),
                     "-q"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert {key: payload[key] for key in self.DIGESTS} == self.DIGESTS


class TestSearchChaos:
    """``search.corpus.write`` and ``search.chunk`` faults: results
    never change."""

    def chaos_plan(self, mode):
        return FaultPlan(seed=CHAOS_SEED, faults=(
            FaultSpec(point="search.corpus.write", mode=mode,
                      probability=1.0),))

    def test_write_raise_is_absorbed(self, search_config, baseline,
                                     tmp_path):
        search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus",
                                fault_plan=self.chaos_plan("raise"))
        result = search.run()
        assert result_key(result) == result_key(baseline)
        assert search.corpus.write_failures == result.corpus_size
        assert list((tmp_path / "corpus").glob("*.json")) == []

    def test_corrupt_entries_load_as_misses(self, search_config, baseline,
                                            tmp_path):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus",
                                fault_plan=self.chaos_plan("corrupt")).run()
        # In-memory search is untouched by on-disk damage...
        assert result_key(result) == result_key(baseline)
        # ...and every damaged on-disk entry is a miss, never a crash.
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == 0
        assert reloaded.misses == result.corpus_size

    @pytest.mark.parametrize("leg", ["kill", "raise", "hang-campaign"])
    def test_supervised_chunk_faults(self, leg, make_fuzzer, events,
                                     search_config, baseline):
        """``search.chunk`` faults at 2 workers: the chunk supervisor
        recovers every chunk and the result is the fault-free one."""
        policy = SupervisorPolicy(backoff_base=0.005, backoff_cap=0.02,
                                  seed=CHAOS_SEED)
        if leg == "hang-campaign":
            # Round 0 has two chunks, so it runs on the pool, where a
            # hung chunk can be abandoned at its timeout.
            plan = FaultPlan(seed=CHAOS_SEED, faults=(
                FaultSpec(point="search.chunk", mode="hang",
                          hang_seconds=2.0, times=1, match=(0,)),))
            campaign = FuzzingCampaign(
                make_fuzzer(gadget_budget=MAX_EVALS), strategy="coverage",
                workers=2, fault_plan=plan,
                supervisor_policy=SupervisorPolicy(
                    shard_timeout=0.5, backoff_base=0.005,
                    backoff_cap=0.02, seed=CHAOS_SEED))
            campaign.run(events)
            assert result_key(campaign.search_result) == result_key(baseline)
            assert campaign.stats.timeouts >= 1
            assert campaign.stats.pool_restarts >= 1
            assert campaign.stats.quarantined == []
            return
        times = 1 if leg == "kill" else policy.max_retries
        plan = FaultPlan(seed=CHAOS_SEED, faults=(
            FaultSpec(point="search.chunk", mode=leg, times=times),))
        search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                workers=2, fault_plan=plan, policy=policy)
        result = search.run()
        assert result_key(result) == result_key(baseline)
        report = search.report
        assert report.quarantined == []
        if leg == "kill":
            assert report.pool_restarts >= 1
            assert any(f.kind == "worker-lost" for f in report.failures)
        else:
            # Raised faults come back as themselves: plain retries,
            # no pool rebuild.
            assert report.pool_restarts == 0
            assert report.retries == len(report.failures) > 0
            assert {f.kind for f in report.failures} == {"error"}


class TestBlindBaseline:
    def test_blind_search_reproduces_campaign_screening(
            self, search_config, make_fuzzer, events):
        report = FuzzingCampaign(make_fuzzer()).run(events)
        blind = blind_search(search_config, max_evals=160)
        assert set(blind.first_cover) == set(report.first_responder)
        for event, gadget_index in report.first_responder.items():
            assert blind.first_cover[event] == gadget_index + 1
        assert blind.evals_to_cover(len(blind.first_cover)) \
            == report.evals_to_cover

    def test_blind_search_digests_pinned(self, make_fuzzer, amd_catalog):
        """Blind sampling carries one memo across its chunks; its
        results are those recorded with per-chunk memos."""
        config = make_fuzzer().search_config(
            np.flatnonzero(amd_catalog.guest_sensitive))
        blind = blind_search(config, max_evals=300)
        assert blind.coverage_digest == (
            "c1aa088b560b10b903c0a8cb6f3d406d"
            "4f8d05e8246b4754c60fe28784ef1277")
        assert blind.coverage_features == 156
        assert blind.covered_count == 87
        assert blind.evals_to_cover(87) == 299
        responders = json.dumps({str(e): pairs for e, pairs
                                 in sorted(blind.responders.items())})
        assert hashlib.sha256(responders.encode()).hexdigest() == (
            "123c540290f1240786d9d14a88af1974"
            "dc25e8401650c74815ecb2aa0f29a9df")

    def test_evals_to_cover_semantics(self):
        first_cover = {3: 10, 7: 40, 9: 25}
        assert evals_to_cover(first_cover, 0) == 0
        assert evals_to_cover(first_cover, 1) == 10
        assert evals_to_cover(first_cover, 3) == 40
        assert evals_to_cover(first_cover, 4) is None


class TestCoverageCampaign:
    @staticmethod
    def run_coverage_campaign(make_fuzzer, events, workers, corpus_dir):
        campaign = FuzzingCampaign(make_fuzzer(), strategy="coverage",
                                   workers=workers, corpus_dir=corpus_dir)
        report = campaign.run(events)
        assert campaign.search_result is not None
        key = ({g.name: sorted(e) for g, e in report.covering_set.items()},
               dict(report.screened_per_event),
               dict(report.first_responder),
               campaign.search_result.corpus_replay_digest)
        return report, key

    def test_strategy_coverage_is_worker_invariant(self, make_fuzzer,
                                                   events, tmp_path):
        report1, key1 = self.run_coverage_campaign(
            make_fuzzer, events, workers=1, corpus_dir=tmp_path / "c1")
        report2, key2 = self.run_coverage_campaign(
            make_fuzzer, events, workers=2, corpus_dir=tmp_path / "c2")
        assert key1 == key2
        assert report1.evals_to_cover > 0
        assert report1.evals_to_cover == report2.evals_to_cover

    def test_unknown_strategy_rejected(self, make_fuzzer):
        with pytest.raises(CampaignError, match="strategy"):
            FuzzingCampaign(make_fuzzer(), strategy="genetic")

    def test_corpus_dir_requires_coverage(self, make_fuzzer, tmp_path):
        with pytest.raises(CampaignError, match="corpus_dir"):
            FuzzingCampaign(make_fuzzer(), corpus_dir=tmp_path)


# -- CLI ------------------------------------------------------------------


class TestSearchCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["search"])
        assert args.func.__name__ == "cmd_search"
        assert args.budget == 2000
        assert args.workers == 1
        args = build_parser().parse_args(
            ["fuzz", "--strategy", "coverage", "--corpus-dir", "c"])
        assert args.strategy == "coverage"
        assert args.corpus_dir == "c"

    def test_search_command_writes_digests(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "digests.json"
        code = main(["search", "--budget", "120", "--events", "4",
                     "--seed", "11", "--digest-out", str(out), "-q"])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["evals"] >= 120
        assert payload["covered_events"] > 0
        assert len(payload["corpus_replay_digest"]) == 64

    def test_fuzz_corpus_dir_needs_coverage_strategy(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="strategy coverage"):
            main(["fuzz", "--corpus-dir", "c", "-q"])
