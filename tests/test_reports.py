"""Report bytes of the benchmark's operations, pinned by SHA-256.

Each case is one invocation of ``perfbench/workloads.py``'s ``WORKLOADS``,
copied here with the seed the benchmark gives it (0 where an op fixes none,
2029 for ``schulman-paths``), run in-process through ``cli.main`` once per
``--format``.  A change that alters one of these reports updates its digest
here and says why.
"""

import hashlib

import pytest

from belllab import cli


def _chsh(model: str, workers: str) -> tuple[str, ...]:
    return ("run-chsh", "--model", model, "--samples", "1000000", "--workers", workers,
            "--seed", "0")


REPORT_DIGESTS = {
    _chsh("hall", "1"):
        "c0d831155cef8c9ae7e390c23a50b7b703aa12b5135dba81023f52b02faa7b08",
    _chsh("delta-mixture", "1"):
        "aa0f9a792aaa925047787f0e11ea4a478e6bf81530057142956a9690eb2d9987",
    _chsh("local-baseline", "1"):
        "4467b025f70533f56940930acbd270f11fddd54e814062648888c113f1c7c1a1",
    _chsh("pr-box", "1"):
        "e66122544669cd4dbd7884165216afc613d9630d6cda816d6c0c293e27e4e20a",
    _chsh("hall", "2"):
        "c0d831155cef8c9ae7e390c23a50b7b703aa12b5135dba81023f52b02faa7b08",
    ("scan-settings", "--model", "hall", "--grid", "16", "--seed", "0"):
        "60aacfeb20627ddaf9d70cdb88d223ecf01ac44dbd0ec4f1f7b27ef30eb9bf70",
    ("scan-settings", "--model", "delta-mixture", "--grid", "16", "--seed", "0"):
        "5ac182f6a94f418b611f8996183faac473fd38428f7bd8d414f086d21d71aecb",
    ("mutual-info", "--lambda-grid", "2048", "--settings-grid", "64", "--seed", "0"):
        "7d5df54c8c05ad6285199c71d5733a5479df72d4e7104cb16a30015018a533d2",
    ("schulman-paths", "--gamma", "1e-3", "--steps", "100", "--samples", "100000",
     "--seed", "2029"):
        "91186e2228e8614013f2f92d0514b13e37448f3634aa75418dc67bfc4427f32a",
    ("two-photon", "--gamma", "1e-4", "--pair", "0,0.125pi", "--seed", "0"):
        "22b4fb1ffbba012aca3c8d02a07ddd8692fa41ddc891f633e1b02ddba8b72bca",
    ("run-chsh", "--model", "schulman-2", "--gamma", "1e-5", "--seed", "0"):
        "bb2a81d45a34a1587fdab94dfc9c490d3963c98a70337ab21d4c619213a3ed84",
}


CSV_REPORT_DIGESTS = {
    _chsh("hall", "1"):
        "899dc9710a15bc065be4da1e2a4f814c55ee038f6bd18c75c31be69021cb8df4",
    _chsh("delta-mixture", "1"):
        "22aca4fa16c9b92db07495dae794f5a5638eb6d8ad96539dc5709823308d170f",
    _chsh("local-baseline", "1"):
        "8e3a762a572a09cca00b20066aa6306cad61c2752b059697406e75ed688e03b9",
    _chsh("pr-box", "1"):
        "a72d99f12a085bd2b05716ffec6a4058e2641bcbef5a396dbf5a48e5c986cca5",
    _chsh("hall", "2"):
        "899dc9710a15bc065be4da1e2a4f814c55ee038f6bd18c75c31be69021cb8df4",
    ("scan-settings", "--model", "hall", "--grid", "16", "--seed", "0"):
        "e61f4390949615e28801d6d068b1b18dfae975dca95ca23f579e296a702225c3",
    ("scan-settings", "--model", "delta-mixture", "--grid", "16", "--seed", "0"):
        "99654ba2dfa05cc622dd1bfa55496ab3c02849398b4f25fff36e6b1d0207336d",
    ("mutual-info", "--lambda-grid", "2048", "--settings-grid", "64", "--seed", "0"):
        "1ebb33d57c99f1f3b341b359c7f4782d572ffac49d91928d796e2eba212cbc6c",
    ("schulman-paths", "--gamma", "1e-3", "--steps", "100", "--samples", "100000",
     "--seed", "2029"):
        "08df879195be83b084aab0864a23e05cc4023a0b71f43dade94dbc762cb9da3c",
    # The CSV writer quotes a field that holds a comma: `config.pair,"0,0.125pi"`.
    # Joined by hand, the row was `config.pair,0,0.125pi`, three fields
    # (digest 034773f28165122db9a1b2f7b5125bfd23e43c63494b0513d660987723718d1c).
    ("two-photon", "--gamma", "1e-4", "--pair", "0,0.125pi", "--seed", "0"):
        "226822326bccb7b81b52fc189f73486fb5ef09b46ac974013e26cfa0d29fc573",
    # A null is an empty field: `log10_pvalue_bound,` and `residuals,`.  They
    # were written as Python's `None`
    # (digest 39880ccf39ef837d04ce18851e3fac5f473757de7ef3840457927493a9a3fbb6).
    ("run-chsh", "--model", "schulman-2", "--gamma", "1e-5", "--seed", "0"):
        "9fdce84eb32e5c45b8b1e5315a998a2c1067b9d7dd98cea25aa997768abd105b",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_benchmark_report_bytes_are_pinned(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_DIGESTS[argv]


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_benchmark_csv_report_bytes_are_pinned(argv, tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main([*argv, "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_REPORT_DIGESTS[argv]
