"""BENCHMARK.json is what benchmark_json.py builds from the code."""

import json
import os

from benchmark_json import document
from conftest import ROOT


def test_benchmark_json_is_current():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == document()

