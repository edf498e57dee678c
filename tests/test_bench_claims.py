"""Tests for the paper-claim validation machinery."""


from repro.bench.claims import (
    CLAIMS,
    Claim,
    Verdict,
    evaluate_claims,
    render_verdicts,
)
from repro.bench.report import Series


class TestClaimStructure:
    def test_every_figure_claim_present(self):
        ids = {c.claim_id for c in CLAIMS}
        assert {"overhead-mx", "overhead-quadrics", "bw-mx", "bw-quadrics",
                "multiseg-mx", "multiseg-quadrics", "datatype-mpich-mx",
                "datatype-openmpi-mx", "datatype-quadrics"} == ids

    def test_bands_are_sane(self):
        for claim in CLAIMS:
            assert claim.lo < claim.hi
            assert claim.text
            assert claim.figure.startswith("Fig")


class TestVerdicts:
    def _fake_data(self):
        def series(backend, values, sizes=(4, 8, 16, 32, 64, 2 * 1024 ** 2)):
            return Series(label=backend, backend=backend,
                          sizes=list(sizes), values=list(values))

        # Hand-built data where madmpi is 0.3us above mpich at small sizes
        # and everything else lands mid-band.
        fig2 = [
            series("madmpi", [3.3, 3.3, 3.3, 3.3, 3.3, 1780.0]),
            series("mpich", [3.0, 3.0, 3.0, 3.0, 3.0, 1700.0]),
            series("openmpi", [3.6, 3.6, 3.6, 3.6, 3.6, 1705.0]),
        ]
        # Quadrics: slower wire, so a 2MB transfer takes ~2500us (839 MB/s).
        fig2_q = [
            series("madmpi", [2.6, 2.6, 2.6, 2.6, 2.6, 2500.0]),
            series("mpich", [2.2, 2.2, 2.2, 2.2, 2.2, 2310.0]),
        ]
        fig3_sizes = (4, 8, 16, 32, 64, 1024)
        fig3 = [
            series("madmpi", [5, 5, 5, 6, 6, 20], fig3_sizes),
            series("mpich", [11, 11, 11, 12, 12, 25], fig3_sizes),
            series("openmpi", [16, 16, 16, 17, 17, 30], fig3_sizes),
        ]
        fig4_sizes = (256 * 1024, 1024 ** 2, 2 * 1024 ** 2)
        fig4 = [
            series("madmpi", [230, 880, 1760], fig4_sizes),
            series("mpich", [800, 2760, 5090], fig4_sizes),
            series("openmpi", [530, 2030, 4050], fig4_sizes),
        ]
        return {"fig2_mx": fig2, "fig2_q": fig2_q, "fig3_mx16": fig3,
                "fig3_q16": fig3[:2], "fig4_mx": fig4, "fig4_q": fig4[:2]}

    def test_all_pass_on_paper_shaped_data(self):
        verdicts = evaluate_claims(data=self._fake_data())
        assert len(verdicts) == len(CLAIMS)
        assert all(v.passed for v in verdicts), render_verdicts(verdicts)

    def test_failing_claim_detected(self):
        data = self._fake_data()
        # Break the MX overhead: madmpi a full 2us above mpich.
        data["fig2_mx"][0].values = [5.0, 5.0, 5.0, 5.0, 5.0, 1780.0]
        verdicts = evaluate_claims(data=data)
        failed = [v for v in verdicts if not v.passed]
        assert [v.claim.claim_id for v in failed] == ["overhead-mx"]

    def test_render_contains_every_claim_and_summary(self):
        verdicts = evaluate_claims(data=self._fake_data())
        text = render_verdicts(verdicts)
        for claim in CLAIMS:
            assert claim.claim_id in text
        assert f"{len(CLAIMS)}/{len(CLAIMS)} claims reproduced" in text

    def test_verdict_passed_logic(self):
        claim = Claim("x", "Fig", "t", lambda d: 0.0, 1.0, 2.0, "us")
        assert not Verdict(claim, 0.5).passed
        assert Verdict(claim, 1.5).passed
        assert not Verdict(claim, 2.5).passed
        assert Verdict(claim, 1.0).passed  # inclusive bounds


class TestRealSweeps:
    def test_every_paper_claim_holds(self):
        # The real sweeps over MAD-MPI and both baseline models (what
        # ``repro validate`` runs), not hand-built data: a change to any
        # backend that moves a figure out of its band fails here.
        verdicts = evaluate_claims()
        assert len(verdicts) == len(CLAIMS) == 9
        failed = [v for v in verdicts if not v.passed]
        assert not failed, render_verdicts(failed)
