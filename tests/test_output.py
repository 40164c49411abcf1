"""The post-run output: the report rendered once, its eNB rows, and the bytes
of every output file of two pinned runs."""

import hashlib
from types import SimpleNamespace

import pytest

from bwrsim.cli import main
from bwrsim.config import SimConfig
from bwrsim.metrics import Collector
from bwrsim.runner import RunReport

from egress import record

# sha256 of each file of `bwrsim run --preset P --mode both --seed 0
# --duration-ms D [--config C]`, where C holds the config text of the key
# (no --config when it is empty), with the out-dir in report.txt masked as
# "<out>" (as bench/child.py does).
PINNED = {
    ("scenario2", 500, ""): {
        "cdf_docsis_baseline.csv": "c153795611c4c1b7e13a043a1f75025d8b3e4487c258db85aaf0af64b12c392d",
        "cdf_docsis_bwr.csv": "57e9c2b9eae4e8470191d110b190b8aaa83df3b91530d1d1c4e4764b3483d1ca",
        "cdf_e2e_baseline.csv": "7d563e6b9868d133b558ea358acc1cb9c61fbe2868905129cfb776f156e6a024",
        "cdf_e2e_bwr.csv": "dedc27582f99b3cb1dbec33f85e465c0b6aeaed9429f192fec651a174b95fb0e",
        "deltas.csv": "4db57febd23cc00e5a82023b1502f8f46d57694a9c96a8924c9c84e89658d7b0",
        "report.txt": "11774908d5e13ffac0c507d8190e7002ef2629f3618512196b21168964f28bd7",
        "samples_baseline.csv": "87b179760316bad2d4478e65f11b11306059d6dfed802470c9f309ca480344eb",
        "samples_bwr.csv": "f510c2a36183564d84cd4d8bd953f99162271c4b2f210773cdfca2d3538a2b2b",
    },
    ("scenario1", 1000, ""): {
        "cdf_docsis_baseline.csv": "5e27d50db52313b22c996ce0343cc2f79e0da8c11bc55cf95253f759e0124eb6",
        "cdf_docsis_bwr.csv": "585c92d207ee29941fca19318ead3574e10a48bf120df1ee53a7c2720f0b77c1",
        "cdf_e2e_baseline.csv": "6d6941d0a4337cf06fb9da3c2617caccda1e0355df9074cf4c05b0e34979a905",
        "cdf_e2e_bwr.csv": "ee2b94d0c9606b1e1e47ed1e6231ffb0ec3215a246ea6e02c64d23a04e129c0a",
        "deltas.csv": "d1bdea8ceff671bf1a2a33e0ac9d00cb5aed5ef44d1f5e255f3f034ee8c1ffa2",
        "report.txt": "57db6cd1f2147d93032ecbb7748a5f199cd8dd8e83cb7d410f798c9be774a466",
        "samples_baseline.csv": "796370b9c6aea5fd1c0d6361b837a2e1d231cec1a69b2db972ff391e5ae117e1",
        "samples_bwr.csv": "c481a1914575e2d2ecf26f3496f0f56797134ed35866bb1c4da84154fa1748a2",
    },
    # per-LCG reports and HARQ retransmissions
    ("scenario2", 500, "[enb]\nbwr_per_lcg = on\n[lte-system]\nharq_bler = 0.5\n"): {
        "cdf_docsis_baseline.csv": "93b95862b9fcb3c69ddb87ed21c535168fb7717960de9597594b3b110897e3f2",
        "cdf_docsis_bwr.csv": "7c56efd4aaf9fd849ae360dbdd582fe83dacf2c038c9922bfa71b050e7e0a18d",
        "cdf_e2e_baseline.csv": "8eb280ca426166302cc0884d8f8827e92593a7d08e80dcc79ca3fd500f261837",
        "cdf_e2e_bwr.csv": "15547de958b4012d10ebb25c3991b964501b4949c3e61ef94bfb7eae7d4f341b",
        "deltas.csv": "50df53496471f50fb7cb8b8c0aaf29a70cd066c5836f41042ca025dda0d2afdc",
        "report.txt": "ecf0d25c6ce03c144ac075e95ba9cd64df0096a4df6ce6a0b05a5bc1580659b9",
        "samples_baseline.csv": "88a19477f643a65d6d884b2df136d50de2fb0055bc2677c620297f45c2e99b3a",
        "samples_bwr.csv": "c58610755fa6b50620d0d812d55cd36c8e626958e4ff044785e29c19102fee73",
    },
    # HARQ off: each transport block decodes once
    ("scenario1", 1000, "[lte-system]\nharq = off\n"): {
        "cdf_docsis_baseline.csv": "beea7ff74543fbcc132751617da183f831121f0c4ac23fab28e9ef0260440099",
        "cdf_docsis_bwr.csv": "39faefa72aa255d4ff27302fc0a8822bff522d90e9f7981bbae4d9e9edea3502",
        "cdf_e2e_baseline.csv": "527a44dd7d09217300cdc6f3af53a2a06537dbfe0c7ff6c659a9c2db3fce15c5",
        "cdf_e2e_bwr.csv": "3622018c11c84bc22ee39c30698d90c6a9fd5c1d6392a39f4df9a42ebc003093",
        "deltas.csv": "74c52083d4f9e13042253bacbbacfc664c6ddde7d1914ed0a4576d1b647c39b0",
        "report.txt": "09a1d6e56904d13cba2d13f722d3eed9f54641b1860730718d842334b50c24c6",
        "samples_baseline.csv": "8fa9cb72d1f3c44405151034b5f292da24ee998e21b3bc774fa219c6ad297dc6",
        "samples_bwr.csv": "e6c57ccfc5c906b1def4de15f89a5343d83c1dd774410285aa7958e8c77585a0",
    },
}


def _pinned_id(name, duration_ms, config):
    settings = [line.replace(" ", "") for line in config.splitlines() if "=" in line]
    return "-".join([name, str(duration_ms), *settings])


@pytest.mark.parametrize("name, duration_ms, config",
                         [pytest.param(*key, id=_pinned_id(*key)) for key in PINNED])
def test_output_files_are_pinned(tmp_path, capsys, name, duration_ms, config):
    out = tmp_path / "out"
    argv = ["run", "--preset", name, "--mode", "both", "--seed", "0",
            "--duration-ms", str(duration_ms), "--out-dir", str(out)]
    if config:
        path = tmp_path / "extra.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 0
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = data.replace(str(out).encode(), b"<out>")
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == PINNED[(name, duration_ms, config)]


def test_report_is_rendered_once_and_printed_as_written(tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    render = RunReport.render

    def counted(report):
        calls.append(report)
        return render(report)

    monkeypatch.setattr(RunReport, "render", counted)
    out = tmp_path / "out"
    assert main(["run", "--preset", "scenario2", "--duration-ms", "300",
                 "--mode", "both", "--out-dir", str(out)]) == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    assert printed == (out / "report.txt").read_text(encoding="utf-8")
    assert printed == calls[0].text


def test_render_keeps_an_enb_without_samples_in_order():
    cfg = SimConfig(enb_count=3, eut_enb=2, warmup_us=0)
    collector = Collector("baseline")
    # (enb, docsis us), interleaved; eNB 1 has none
    for pid, (enb, docsis) in enumerate([(3, 5000), (2, 1000), (3, 7000),
                                         (2, 3000), (2, 2000)]):
        record(collector, pid, ue=pid, enb=enb, lte=10_000, docsis=docsis)
    run = SimpleNamespace(mode="baseline", collector=collector)
    lines = RunReport(cfg, [run]).render().splitlines()
    rows = [line for line in lines if line.startswith("  enb")]
    dash = f"{'-':>8s} {'-':>8s} {'-':>8s}"
    assert [r.split()[0] for r in rows] == ["enb1", "enb2", "enb3"]
    assert rows[0] == f"{'  enb1':14s}  {dash}  {dash}  {dash}  {0:7d}"
    assert rows[1].startswith(f"{'  enb2 eut':14s}  ")
    assert rows[1].endswith(f"   1.000    2.000    3.000  {3:7d}")
    assert rows[2].endswith(f"   5.000    6.000    7.000  {2:7d}")
