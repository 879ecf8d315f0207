"""Admission at the service boundary: malformed traffic is contained,
counted, and quarantined -- a malformed request can never kill a
worker or hang a future."""

import pytest

from repro.admission import load_corpus, structure_from_spec
from repro.errors import AdmissionRejected
from repro.mso import formulas, query as mso_query
from repro.service import SolverService
from repro.service import service as service_module
from repro.structures import GRAPH_SIGNATURE, Structure
from repro.structures.structure import structure_fingerprint

from .conftest import CORPUS_DIR
from .test_verify import path_structure

HAS_NEIGHBOR = formulas.has_neighbor("x")


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


def raw_rejected_structure():
    cases = {c["name"]: c for c in load_corpus(CORPUS_DIR)}
    return cases["domain_closure"]["structure"]


class TestServiceAdmission:
    def test_mixed_batch_all_resolve_without_worker_deaths(
        self, neighbor_solver
    ):
        batch = [path_structure(6), clique(4), raw_rejected_structure(),
                 path_structure(4)]
        with SolverService(workers=2, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            results = handle.solve_many(batch, timeout=120)
            stats = service.stats
        assert results[0] == frozenset(batch[0].domain)
        assert results[1] == mso_query(batch[1], HAS_NEIGHBOR, "x")
        assert isinstance(results[2], AdmissionRejected)
        assert results[3] == frozenset(batch[3].domain)
        assert stats.worker_restarts == 0
        assert stats.admitted == 2
        assert stats.degraded == 1
        assert stats.admission_rejected == 1

    def test_per_request_override_on_plain_service(self, neighbor_solver):
        from repro.service import ShardFailed

        wide = clique(4)
        with SolverService(workers=1) as service:
            handle = service.register(neighbor_solver)
            # no service default: the same structure fails legacy-style
            # without admission (whole batch raises), degrades with it
            with pytest.raises(ShardFailed, match="WidthExceeded"):
                handle.solve_many([wide])
            got = handle.solve_many([wide], admission="degrade")
            assert got[0] == mso_query(wide, HAS_NEIGHBOR, "x")

    def test_rejections_are_quarantined_and_fast_fail(self, neighbor_solver):
        raw = raw_rejected_structure()
        with SolverService(workers=1, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            first = handle.solve_many([raw])
            assert isinstance(first[0], AdmissionRejected)
            records = service.quarantined()
            assert len(records) == 1
            assert records[0].reason == "admission"
            # resubmission fast-fails from the quarantine with the
            # stored rejection -- no worker round trip
            again = handle.solve_many([raw])
            assert isinstance(again[0], AdmissionRejected)
            assert again[0].report.verdict == "rejected"
            assert service.stats.quarantine_rejections == 1
            # evicting re-opens the door
            assert service.evict_quarantine(records[0].fingerprint) == 1
            assert service.quarantined() == ()

    def test_quarantine_is_capped_with_lru_eviction(
        self, neighbor_solver, monkeypatch
    ):
        """More distinct rejected fingerprints than the cap: the
        quarantine stays at the cap and counts what it evicted."""
        cap = 4
        monkeypatch.setattr(service_module, "QUARANTINE_CAPACITY", cap)
        rejected = [
            structure_from_spec(
                {
                    "signature": {"e": 2},
                    "domain": [0, 1],
                    "relations": {"e": [[0, 100 + i], [100 + i, 0]]},
                }
            )
            for i in range(3 * cap)
        ]
        with SolverService(workers=1, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            sizes = []
            for structure in rejected:
                (result,) = handle.solve_many([structure], timeout=120)
                assert isinstance(result, AdmissionRejected)
                sizes.append(service.stats.quarantine_size)
            records = service.quarantined()
            stats = service.stats
        assert sizes == [min(i + 1, cap) for i in range(len(rejected))]
        assert stats.quarantine_size == cap
        assert stats.quarantine_evictions == len(rejected) - cap
        assert stats.admission_rejected == len(rejected)
        # the survivors are the most recently submitted fingerprints
        assert [r.fingerprint for r in records] == [
            structure_fingerprint(s) for s in rejected[-cap:]
        ]

    def test_invalid_service_policy_rejected(self):
        with pytest.raises(ValueError, match="admission policy"):
            SolverService(workers=1, admission="yolo")

    def test_whole_corpus_chaos(self, neighbor_solver):
        """The acceptance gate: the full malformed corpus through a
        live service -- zero worker deaths, zero hung futures, every
        request resolves to an answer or a typed rejection."""
        cases = load_corpus(CORPUS_DIR)
        with SolverService(workers=2, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            futures = [
                handle.submit(case["structure"], td=case["td"])
                for case in cases
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result(timeout=120)))
                except AdmissionRejected as exc:
                    outcomes.append(("rejected", exc))
            stats = service.stats
        assert len(outcomes) == len(cases)
        assert stats.worker_restarts == 0
        for case, (kind, payload) in zip(cases, outcomes):
            if case["expect"] == "rejected":
                assert kind == "rejected", case["name"]
                assert payload.report.verdict == "rejected"
            else:
                assert kind == "ok", case["name"]
                assert isinstance(payload, frozenset)
        assert stats.admitted + stats.repaired + stats.degraded == sum(
            1 for c in cases if c["expect"] != "rejected"
        )
        assert stats.admission_rejected == sum(
            1 for c in cases if c["expect"] == "rejected"
        )

    def test_legacy_traffic_untouched_by_default(self, neighbor_solver):
        batch = [path_structure(5), path_structure(3)]
        with SolverService(workers=1) as service:
            handle = service.register(neighbor_solver)
            results = handle.solve_many(batch)
            stats = service.stats
        assert results == [frozenset(s.domain) for s in batch]
        assert stats.admitted == 0
        assert stats.repaired == 0
        assert stats.degraded == 0
        assert stats.admission_rejected == 0
