"""The code examples of README.md run against the package as it is, and
the limits it states are the constants of the code."""

import os
import re

import semidecay
from semidecay import config, fokker_planck, generate_instance
from semidecay.reports import PASS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _section_code(heading):
    """The fenced code blocks of one ``## `` section of the README."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\n(.*?)^```$", section, flags=re.M | re.S)


def test_python_api_examples_run():
    blocks = _section_code("Python API")
    assert len(blocks) == 2
    inst = generate_instance(1, 16)
    cert = inst.certificate
    namespace = {name: getattr(semidecay, name) for name in semidecay.__all__}
    namespace.update(T=inst.split.full, a=cert.a, r=cert.r, xis=list(cert.xi),
                     split=inst.split, pair=inst.pair, rate=0.5 * cert.a)
    for block in blocks:
        exec(block, namespace)
    for name in ("h1", "h2", "h3", "transfer", "converse", "h4", "factorization",
                 "chain"):
        assert namespace[name].verdict == PASS, name
    assert len(namespace["transfer"].certificate.projectors) == cert.k


def test_stated_size_limits_match_the_code():
    """The limits the README gives as `module.NAME` = 10^k are the constants."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    stated = dict(re.findall(r"`((?:config|fokker_planck)\.MAX_\w+)` = 10\^(\d+)", text))
    assert stated.keys() == {"config.MAX_TIME_SAMPLES", "fokker_planck.MAX_NODES"}
    modules = {"config": config, "fokker_planck": fokker_planck}
    for name, exponent in stated.items():
        module, constant = name.split(".")
        assert getattr(modules[module], constant) == 10 ** int(exponent), name
