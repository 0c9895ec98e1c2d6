import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasscy

# the package's public names, each with the module that defines it
PUBLIC = {
    "dop": ["DOp", "dop_to_json", "pf_fit"],
    "hypergeom": ["a_series", "a_series_qspecialized", "a_series_terms", "factorial_trick"],
    "laurent": ["LaurentPoly", "laurent_from_json", "laurent_pow_ct", "laurent_to_json"],
    "laxmirror": ["canonical_gauge_coeffs", "lax_operator", "mirror_period", "mirror_system",
                  "period_ct"],
    "mirror_analysis": ["FrobeniusPair", "extract_instantons", "frobenius", "mirror_map",
                        "normal_form_check", "yukawa_q", "yukawa_z"],
    "pipeline": ["RunReport", "run_case"],
    "qh": ["build_qh_matrix", "scalar_operator", "verify_conjecture"],
    "registry": ["RegistryCase", "registry_load"],
    "series": ["PowerSeries", "Q", "TruncationError", "series_from_json", "series_to_json"],
    "toric": ["build_delta", "degree_grassmannian", "facets_and_reflexivity"],
}

CHILD = r"""
import json, sys
import grasscy
loaded = sorted(m for m in sys.modules if m.startswith("grasscy."))
public = json.loads(sys.argv[1])
# resolving a name through the package loads its module; the object must be
# that module's own
wrong = [f"{module}.{name}" for module, names in public.items() for name in names
         if getattr(grasscy, name) is not getattr(sys.modules[f"grasscy.{module}"], name)]
try:
    grasscy.no_such_name
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({"loaded": loaded, "wrong": wrong, "all": sorted(grasscy.__all__),
                  "version": grasscy.__version__, "missing_raises": missing_raises}))
"""


def test_import_grasscy_is_lazy_and_keeps_every_public_name():
    env = dict(os.environ, PYTHONPATH=str(Path(grasscy.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(PUBLIC)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # `import grasscy` alone loads none of the heavy modules
    assert not {"grasscy.qh", "grasscy.pipeline", "grasscy.mirror_analysis",
                "grasscy.laxmirror"} & set(out["loaded"])
    assert out["wrong"] == []
    assert out["all"] == sorted(name for names in PUBLIC.values() for name in names)
    assert out["version"] == "0.1.0"
    assert out["missing_raises"]



START_UP = ["import grasscy.cli", "import grasscy; grasscy.registry_load()",
            "from grasscy import hypergeom, laurent, laxmirror, qh, toric"]


@pytest.mark.parametrize("code, flags", [pytest.param(code, (), id=code) for code in START_UP]
                         + [pytest.param(code, ("-S",), id=f"-S {code}") for code in START_UP])
def test_start_up_loads_neither_dataclasses_nor_inspect(code, flags):
    """The command-line start-up, the set-up every command pays and the
    crosscheck routes stay off `dataclasses`, which loads `inspect`, `ast`,
    `dis` and `tokenize`, and off `fractions`, which loads `decimal` and
    `numbers`: the package's rationals are its own `Q`.  A stock
    interpreter's start-up (`-S`: no site packages, whose `.pth` files may
    import anything) also stays off `importlib.resources`, which loads
    `pathlib`, `zipfile` and `tempfile`, and off `typing`."""
    env = dict(os.environ, PYTHONPATH=str(Path(grasscy.__file__).resolve().parents[1]))
    forbidden = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}
    if flags:
        forbidden |= {"importlib.resources", "pathlib", "zipfile", "tempfile", "typing"}
    probe = f"{code}; import sys; print(sorted({forbidden!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, *flags, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify-all"], ["instanton", "--case", "X4_G24"]],
                         ids=["verify-all", "instanton"])
def test_pipeline_commands_load_no_other_route(argv):
    """A fresh `grasscy verify-all` or `grasscy instanton` loads none of the
    modules that only the other commands use: the quantum operator, the
    Laurent constant terms and the Lax periods; nor `fractions`, `decimal`
    or `numbers`.  `-X importtime` lists every module the run imports, on
    stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(grasscy.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "grasscy.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "grasscy.pipeline" in loaded
    assert not {"grasscy.laurent", "grasscy.laxmirror", "grasscy.qh",
                "fractions", "decimal", "numbers"} & loaded
