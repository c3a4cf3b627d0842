"""The 2D studies: pinned values, one integrand evaluation per level, on-node x0.

The pinned values are the float.hex of every ``value`` row of three small
studies.  Any change to the rules, the weights or the benchmark functions
that moves a single bit fails here.

They were last re-recorded when `SingularTerm.from_callable` began to
sample phi until its spectrum shows it resolved (256 samples for these
factors) in place of a fixed 4096.  Against the values before, 14 of 75
"sk" values moved, by at most 2.6e-16 relative; 4 of 25 "general" values,
by at most 1.9e-16; 1 of 45 "on_node" values, by 1.9e-16.  The observed
orders moved by at most 7.7e-10.  The re-record before that, when the study
weights moved to the closed-form dual-lattice sums, moved values by at most
1.7e-14 relative off the node and 1.1e-11 on it.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctquad import cli

CONFIGS = {
    "sk": dict(study="quad2d-sk", h0=0.4, count=5, k_values=(0, 1, 2),
               p_values=(1, 2, 3, 4)),
    "general": dict(study="quad2d-general", h0=0.4, count=5, p_values=(2, 3, 4, 5)),
    # x0 on a grid node at every level, as in criterion 5: the k=0 node
    # values hold +inf there, and no rule may read them
    "on_node": dict(study="quad2d-sk", h0=0.4, count=5, alpha=0.0, beta=0.0,
                    k_values=(0, 1, 2), p_values=(1, 2)),
}

# float.hex of each level's value, keyed by (k, method)
PINNED = {
    "sk": {
        (0, "punctured"): (
            "0x1.8a0a9fc62a5c4p+3", "0x1.b3413327ac2bbp+3", "0x1.cf1f372f54f5ep+3",
            "0x1.e2829fb8d756bp+3", "0x1.efc0d34aee853p+3",
        ),
        (0, "corrected-1"): (
            "0x1.fe3d9b95412e8p+3", "0x1.03387601157bfp+4", "0x1.047ac56b4913bp+4",
            "0x1.050a82275afcep+4", "0x1.05494fb899a39p+4",
        ),
        (0, "corrected-2"): (
            "0x1.05031fed1a74fp+4", "0x1.05af22763d667p+4", "0x1.0586fe0151f29p+4",
            "0x1.057e2ee7e9980p+4", "0x1.057bb11f9380fp+4",
        ),
        (0, "corrected-3"): (
            "0x1.04b87e9f7e806p+4", "0x1.058f53fdb3283p+4", "0x1.057ca419b4d58p+4",
            "0x1.057af95da6412p+4", "0x1.057ab77691a75p+4",
        ),
        (0, "corrected-4"): (
            "0x1.051a1093a4167p+4", "0x1.058fa75e4d5eep+4", "0x1.057bd9b2d4ca2p+4",
            "0x1.057ac2387b8a2p+4", "0x1.057aab2c062fap+4",
        ),
        (1, "punctured"): (
            "0x1.b9d43fa904ec2p+2", "0x1.ceee9fd0016d2p+2", "0x1.d67c98193fbedp+2",
            "0x1.da3068d5ec0d4p+2", "0x1.dbe5400e188f2p+2",
        ),
        (1, "corrected-1"): (
            "0x1.d8bf8530b9edep+2", "0x1.ddb04b4a88733p+2", "0x1.dd5399b395162p+2",
            "0x1.dd4f1822a78d0p+2", "0x1.dd4e1e5cb7aeap+2",
        ),
        (1, "corrected-2"): (
            "0x1.d89078086307ep+2", "0x1.dda109d32f6bap+2", "0x1.dd4ed4e4ad9d2p+2",
            "0x1.dd4da1bc57bb1p+2", "0x1.dd4dace24fa1bp+2",
        ),
        (1, "corrected-3"): (
            "0x1.d89700bc1f9bfp+2", "0x1.dda278505caafp+2", "0x1.dd4f21a6c8c73p+2",
            "0x1.dd4db17c7085cp+2", "0x1.dd4db0123728fp+2",
        ),
        (1, "corrected-4"): (
            "0x1.d887dcdf0515ap+2", "0x1.dda1ef6b4158fp+2", "0x1.dd4f1d46624bbp+2",
            "0x1.dd4db1b14f55ep+2", "0x1.dd4db027c6e0fp+2",
        ),
        (2, "punctured"): (
            "0x1.2093e50af22c3p+2", "0x1.2a2fd6cbf0dddp+2", "0x1.2afdd6f51a8e4p+2",
            "0x1.2b64691a2c438p+2", "0x1.2b84532f81308p+2",
        ),
        (2, "corrected-1"): (
            "0x1.269a96c9c8e3bp+2", "0x1.2c1aafd1980b8p+2", "0x1.2b958439bcd7cp+2",
            "0x1.2b92888a1c72dp+2", "0x1.2b9237cefa8e5p+2",
        ),
        (2, "corrected-2"): (
            "0x1.26656d9eec39ap+2", "0x1.2c1064c4a581ap+2", "0x1.2b93836f03989p+2",
            "0x1.2b92243951d42p+2", "0x1.2b92241d646d2p+2",
        ),
        (2, "corrected-3"): (
            "0x1.266829e30a30cp+2", "0x1.2c10ef9d551e2p+2", "0x1.2b93979f0f648p+2",
            "0x1.2b92270229f31p+2", "0x1.2b92247db025dp+2",
        ),
        (2, "corrected-4"): (
            "0x1.2661ddc9bc036p+2", "0x1.2c10dcd7a31cep+2", "0x1.2b9398a0774a0p+2",
            "0x1.2b92272fc0fd4p+2", "0x1.2b922482b6f13p+2",
        ),
    },
    "general": {
        (None, "punctured"): (
            "0x1.f18aaf47db46fp+3", "0x1.0cfa65aff7235p+4", "0x1.1a29f23780385p+4",
            "0x1.238cf9e27666cp+4", "0x1.2a082fe44f72bp+4",
        ),
        (None, "composite-2"): (
            "0x1.32ded58b790cap+4", "0x1.3692421d36897p+4", "0x1.37151c0b1ed11p+4",
            "0x1.37562c2d65b85p+4", "0x1.377115f771d3bp+4",
        ),
        (None, "composite-3"): (
            "0x1.3624ca8efc7b6p+4", "0x1.37c8fde6c5da1p+4", "0x1.378d08982867cp+4",
            "0x1.3786346e75687p+4", "0x1.3784e748e85fep+4",
        ),
        (None, "composite-4"): (
            "0x1.35d631991476ep+4", "0x1.37b34eaf7285ap+4", "0x1.3787e5e60ae0cp+4",
            "0x1.3784f9b894a6cp+4", "0x1.378499a393734p+4",
        ),
        (None, "composite-5"): (
            "0x1.362dfc61d4d34p+4", "0x1.37b15eb6cd4f1p+4", "0x1.3786a38df71d0p+4",
            "0x1.3784aa66aa57fp+4", "0x1.37848884e159cp+4",
        ),
    },
    "on_node": {
        (0, "punctured"): (
            "0x1.7a95ab546388ep+3", "0x1.a6b1e57a0eae4p+3", "0x1.c7e922f943c6bp+3",
            "0x1.de1ca1cacaafdp+3", "0x1.ecfedabaaa7ecp+3",
        ),
        (0, "corrected-1"): (
            "0x1.097126a39f6e2p+4", "0x1.061d28b8a5c84p+4", "0x1.05ccb579b62ecp+4",
            "0x1.059e68e372df8p+4", "0x1.058a2806b399dp+4",
        ),
        (0, "corrected-2"): (
            "0x1.077fbf59d04e9p+4", "0x1.05514c9850c88p+4", "0x1.05775852f05b4p+4",
            "0x1.057a0aad83d77p+4", "0x1.057a76ef59b61p+4",
        ),
        (1, "punctured"): (
            "0x1.c74e8425380fep+2", "0x1.ceeac3b3d5e0bp+2", "0x1.d72cb54ea9600p+2",
            "0x1.da941cc00f7c0p+2", "0x1.dc16e43b43937p+2",
        ),
        (1, "corrected-1"): (
            "0x1.e68ba42512297p+2", "0x1.dccd0ad036cfap+2", "0x1.dd58632262adcp+2",
            "0x1.dd52311e28f3ep+2", "0x1.dd4eed48a43a8p+2",
        ),
        (1, "corrected-2"): (
            "0x1.e5a1c3949ce8ap+2", "0x1.dc90b8571a5f5p+2", "0x1.dd485d0e0c646p+2",
            "0x1.dd4dd176eea09p+2", "0x1.dd4db4d90e705p+2",
        ),
        (2, "punctured"): (
            "0x1.30468da850a5ep+2", "0x1.29c991ac94b07p+2", "0x1.2b4c2ed5370d0p+2",
            "0x1.2b7f2ece8f1f7p+2", "0x1.2b8c81c055207p+2",
        ),
        (2, "corrected-1"): (
            "0x1.3322872aa7108p+2", "0x1.2aa2734e7567cp+2", "0x1.2b8c71afd872bp+2",
            "0x1.2b9239224d2aap+2", "0x1.2b9225ff122d4p+2",
        ),
        (2, "corrected-2"): (
            "0x1.33153ce110efcp+2", "0x1.2aa0a471d1dffp+2", "0x1.2b8c335f39a29p+2",
            "0x1.2b9230ca6a175p+2", "0x1.2b9224e27f17ep+2",
        ),
    },
}


def _values_hex(result) -> dict:
    out: dict = {}
    for row in result["rows"]:
        out.setdefault((row["k"], row["method"]), []).append(float.hex(row["value"]))
    return {key: tuple(vals) for key, vals in out.items()}


@pytest.mark.parametrize("name", ["sk", "general"])
def test_study_values_are_pinned(name):
    res = cli.run_quad2d(cli.StudyConfig(**CONFIGS[name]))
    assert _values_hex(res) == PINNED[name]


def test_on_node_singularity_runs_warning_free_with_pinned_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cli.run_quad2d(cli.StudyConfig(**CONFIGS["on_node"]))
    assert _values_hex(res) == PINNED["on_node"]


@pytest.mark.parametrize("name", ["sk", "general"])
def test_smooth_factor_evaluated_once_per_level_and_case(name, monkeypatch):
    # every rule of a level reads one array of node values; a rule that
    # evaluated the integrand again would multiply the count by the number
    # of rules
    config = cli.StudyConfig(**CONFIGS[name])
    evaluated = []
    smooth_factor = cli.smooth_factor

    def counting(x, y):
        evaluated.append(np.size(x))
        return smooth_factor(x, y)

    monkeypatch.setattr(cli, "smooth_factor", counting)
    cli.run_quad2d(config)
    cases = len(config.k_values) if name == "sk" else 1
    grid_nodes = sum(
        int(np.prod(cli.grid_with_offset(h, config.half_width, (0.0, 0.0),
                                         config.alpha, config.beta).shape))
        for h in config.hs())
    # v is also evaluated node by node on each rule's stencil (at most 12)
    stencil_nodes = config.count * len(config.p_values) * 12
    assert sum(evaluated) <= cases * (grid_nodes + stencil_nodes)
