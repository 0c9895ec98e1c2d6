#!/usr/bin/env bash
# End-to-end checks through the real entry point, standard library only.
#
#     scripts/end_to_end.sh                  # with `python` on PATH
#     PYTHON=/path/to/python3.12 scripts/end_to_end.sh
#
# Runs from the checkout root with PYTHONPATH=src and stops at the first
# failed check, naming its step.  Each check is one command of its own:
# under `set -e` a failure on the left of `a && b` does not stop the script.
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src
PY=${PYTHON:-python}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
step() { printf '== %s\n' "$1"; }

step "bad input through the real entry point exits 2 with one JSON object on stderr"
echo '{"cases": []}' > "$tmp/empty.json"
"$PY" -c 'import json, sys
for field, value in (("k", 0), ("pf_max_zdeg", 40), ("h11", [1]), ("n", 4.0), ("name", 7)):
    data = json.load(open("src/grasscy/data/cases.json"))
    data["cases"][0][field] = value
    json.dump(data, open(f"{sys.argv[1]}/{field}.json", "w"))' "$tmp"
"$PY" -c 'import json, sys
from grasscy.laurent import LaurentPoly, laurent_to_json
from grasscy.laxmirror import canonical_gauge_coeffs, mirror_system
# the mirror product of X4_G24 multiplied out, F^4 with q tracked as z: 105 monomials, 100 free counts
ms = mirror_system(2, 4, (4,), ((1, 2, 3, 4),), *canonical_gauge_coeffs(2, 4))
F = ms.polys[0] + ms.polys[1] + ms.polys[2] + ms.polys[3]
G = F * F * F * F
json.dump(laurent_to_json(LaurentPoly(5, {e + (1,): c for e, c in G.terms.items()})), open(sys.argv[1], "w"))' "$tmp/g24.json"
# x + q x^-999: mu = 1000, so order 200 reaches the power 200000, whose factorial is past the cap
"$PY" -c 'import json, sys
json.dump({"nvars": 2, "terms": [{"exp": [1, 0], "c": "1"}, {"exp": [-999, 1], "c": "1"}]}, open(sys.argv[1], "w"))' "$tmp/mu1000.json"
for args in "qh-operator 0 3" "toric 5 12" "toric 4 8 --facets" "toric 2 400" "lax 100 200" "mirror-system 40 80 --degrees 80" "verify-all --bogus" "phi 2 5 --degrees -1,3,3" "pf-fit --series x --max-order 4 --max-degree 1" "verify-all --registry $tmp/empty.json" "verify-all --registry $tmp/k.json" "verify-all --registry $tmp/pf_max_zdeg.json" "verify-all --registry $tmp/h11.json" "verify-all --registry $tmp/n.json" "verify-all --registry $tmp/name.json" "aseries 3 6 --order 200 --keep-params" "aseries 1000 2000 --order 1" "phi 1000 2000 --degrees 1 --order 1" "period --poly $tmp/g24.json" "period --poly $tmp/mu1000.json --order 200"; do
  code=0
  timeout 60 "$PY" -m grasscy.cli $args > "$tmp/out" 2> "$tmp/err" || code=$?
  test "$code" -eq 2
  test ! -s "$tmp/out"
  "$PY" -c 'import json, sys; lines = open(sys.argv[1]).read().splitlines(); sys.exit(len(lines) != 1 or not isinstance(json.loads(lines[0]), dict))' "$tmp/err"
done

step "deep inputs through the real entry point within 60 s (the A-series listing of G(2,1003), 1000 cells, to order 0; the period of x + sum_(j < 2000) x^-j q^(j+1), 1999 free counts, to order 1)"
timeout 60 "$PY" -m grasscy.cli aseries 2 1003 --order 0 --keep-params > "$tmp/a21003.json"
"$PY" -c 'import json, sys; t = json.load(open(sys.argv[1]))["terms"]
sys.exit(len(t) != 1 or t[0]["s"] != [0] * 1000)' "$tmp/a21003.json"
"$PY" -c 'import json, sys
terms = [{"exp": [1, 0], "c": "1"}] + [{"exp": [-j, j + 1], "c": "1"} for j in range(2000)]
json.dump({"nvars": 2, "terms": terms}, open(sys.argv[1], "w"))' "$tmp/deep.json"
timeout 60 "$PY" -m grasscy.cli period --poly "$tmp/deep.json" --order 1 > "$tmp/deep_period.json"
"$PY" -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["coeffs"] != ["1", "1"])' "$tmp/deep_period.json"

step "verify-all into a pipe whose reader has exited ends quietly (exit 141, 128 + SIGPIPE, and nothing on stderr)"
code=0
"$PY" -c 'import os, subprocess, sys
r, w = os.pipe(); os.close(r)
sys.exit(subprocess.run([sys.executable, "-m", "grasscy.cli", "verify-all"], stdout=w).returncode)' 2> "$tmp/pipe_err" || code=$?
test "$code" -eq 141
test ! -s "$tmp/pipe_err"

step "--help into a pipe whose reader has exited ends quietly like every other command (exit 141 and nothing on stderr)"
code=0
"$PY" -c 'import os, subprocess, sys
r, w = os.pipe(); os.close(r)
sys.exit(subprocess.run([sys.executable, "-m", "grasscy.cli", "--help"], stdout=w).returncode)' 2> "$tmp/help_err" || code=$?
test "$code" -eq 141
test ! -s "$tmp/help_err"

step "verify-all to a full disk exits 1 with one JSON object on stderr, not a traceback"
code=0
"$PY" -m grasscy.cli verify-all > /dev/full 2> "$tmp/full_err" || code=$?
test "$code" -eq 1
"$PY" -c 'import json, sys; lines = open(sys.argv[1]).read().splitlines()
sys.exit(len(lines) != 1 or not json.loads(lines[0])["error"].startswith("OSError: [Errno 28]"))' "$tmp/full_err"

step "A-series of G(1,400) to order 20 read back by pf-fit (denominators past 4300 digits, the interpreter's default cap; no annihilator at bounds (1,1), so exit 1, not 2 for unreadable input)"
"$PY" -m grasscy.cli aseries 1 400 --order 20 > "$tmp/a1400.json"
"$PY" -c 'import json, sys; c = json.load(open(sys.argv[1]))["coeffs"]
sys.exit(len(c) != 21 or max(map(len, c)) <= 4300)' "$tmp/a1400.json"
code=0
"$PY" -m grasscy.cli pf-fit --series "$tmp/a1400.json" --max-order 1 --max-degree 1 > "$tmp/fit1400.json" 2> "$tmp/fit1400_err" || code=$?
test "$code" -eq 1
test ! -s "$tmp/fit1400.json"
"$PY" -c 'import json, sys; lines = open(sys.argv[1]).read().splitlines()
sys.exit(len(lines) != 1 or json.loads(lines[0])["error"] != "NoAnnihilator: no annihilator within bounds (1,1)")' "$tmp/fit1400_err"

step "Lax polynomial of G(1,40) through the real entry point to a file (C(40,1) = 40 is past DIM_BOUND, but its 40 monomials in 39 variables are within the vertex-entry bound; its 19.7 kB pass through more than one stdout buffer before the process ends by os._exit)"
timeout 60 "$PY" -m grasscy.cli lax 1 40 > "$tmp/lax140.json"
"$PY" -c 'import json, sys; sys.exit(len(json.load(open(sys.argv[1]))["terms"]) != 40)' "$tmp/lax140.json"

step "multivariate A-series of G(2,5) to order 6 through the real entry point (summed over the parameter exponents s at each m, it must equal the q-series)"
"$PY" -m grasscy.cli aseries 2 5 --order 6 --keep-params > "$tmp/terms25.json"
"$PY" -m grasscy.cli aseries 2 5 --order 6 > "$tmp/q25.json"
"$PY" -c 'import json, sys; from fractions import Fraction as Q
t, a = (json.load(open(f)) for f in sys.argv[1:])
sums = [sum((Q(x["c"]) for x in t["terms"] if x["m"] == m), Q(0)) for m in range(7)]
sys.exit(len(a["coeffs"]) != 7 or sums != [Q(c) for c in a["coeffs"]])' "$tmp/terms25.json" "$tmp/q25.json"

step "facets of G(3,7) through the real entry point (35 of them, every c = 1, reflexive)"
timeout 60 "$PY" -m grasscy.cli toric 3 7 --facets > "$tmp/toric37.json"
"$PY" -c 'import json, sys; d = json.load(open(sys.argv[1]))
sys.exit(len(d["facets"]) != 35 or any(f["c"] != "1" for f in d["facets"]) or d["reflexive"] is not True)' "$tmp/toric37.json"

step "verify-all through the real entry point (its report, as printed, must equal the benchmark's reference)"
"$PY" -m grasscy.cli verify-all > "$tmp/verify_all.json"
"$PY" -c 'import json, sys; sys.path.insert(0, "perfbench"); from check import first_difference, load_reference
diff = first_difference(json.load(open(sys.argv[1])), load_reference("verify_all"))
sys.exit(diff and f"verify-all report differs from perfbench/reference/verify_all.json at {diff}")' "$tmp/verify_all.json"

step "verify-all and instanton --case X1111111_G27 through the real entry point print the same bytes on a second run"
for args in "verify-all" "instanton --case X1111111_G27"; do
  "$PY" -m grasscy.cli $args > "$tmp/first.json"
  "$PY" -m grasscy.cli $args > "$tmp/second.json"
  test -s "$tmp/first.json"
  cmp "$tmp/first.json" "$tmp/second.json"
done

step "Picard-Fuchs fit of the G(2,7) period at bounds (5,6) through the real entry point (its variable and terms must equal the registry operator's)"
"$PY" -m grasscy.cli phi 2 7 --degrees 1,1,1,1,1,1,1 --order 52 > "$tmp/phi27.json"
"$PY" -m grasscy.cli pf-fit --series "$tmp/phi27.json" --max-order 5 --max-degree 6 > "$tmp/fit27.json"
"$PY" -m grasscy.cli instanton --case X1111111_G27 > "$tmp/inst27.json"
"$PY" -c 'import json, sys; fit, inst = (json.load(open(f)) for f in sys.argv[1:])
sys.exit((fit["var"], fit["terms"]) != (inst["operator"]["var"], inst["operator"]["terms"]) and "pf-fit at (5,6) differs from the registry operator")' "$tmp/fit27.json" "$tmp/inst27.json"

step "verify-all to d = 200, the count cap (exits 1 on any non-integral instanton number)"
timeout 300 "$PY" -m grasscy.cli verify-all --count 200 > /dev/null

step "Lax period of G(2,4) to order 8 through the real entry point (coefficient d must be (4d)! a_d)"
"$PY" -m grasscy.cli lax 2 4 > "$tmp/lax.json"
"$PY" -m grasscy.cli period --poly "$tmp/lax.json" --order 8 > "$tmp/period.json"
"$PY" -m grasscy.cli aseries 2 4 --order 8 > "$tmp/aseries.json"
"$PY" -c 'import json, sys; from fractions import Fraction as Q; from math import factorial
p, a = (json.load(open(f))["coeffs"] for f in sys.argv[1:])
sys.exit(len(p) != 9 or any(Q(p[d]) != factorial(4 * d) * Q(a[d]) for d in range(9)))' "$tmp/period.json" "$tmp/aseries.json"

step "Lax period of G(2,5) to order 5 through the real entry point (coefficient d must be (5d)! a_d)"
"$PY" -m grasscy.cli lax 2 5 > "$tmp/lax25.json"
timeout 60 "$PY" -m grasscy.cli period --poly "$tmp/lax25.json" --order 5 > "$tmp/period25.json"
"$PY" -m grasscy.cli aseries 2 5 --order 5 > "$tmp/aseries25.json"
"$PY" -c 'import json, sys; from fractions import Fraction as Q; from math import factorial
p, a = (json.load(open(f))["coeffs"] for f in sys.argv[1:])
sys.exit(len(p) != 6 or any(Q(p[d]) != factorial(5 * d) * Q(a[d]) for d in range(6)))' "$tmp/period25.json" "$tmp/aseries25.json"

step "Lax period of G(2,5) to order 10 through the real entry point within 60 s (coefficient d must be (5d)! a_d; the walk over the relations of the nine monomials)"
"$PY" -m grasscy.cli lax 2 5 > "$tmp/lax25.json"
timeout 60 "$PY" -m grasscy.cli period --poly "$tmp/lax25.json" --order 10 > "$tmp/period25_10.json"
"$PY" -m grasscy.cli aseries 2 5 --order 10 > "$tmp/aseries25_10.json"
"$PY" -c 'import json, sys; from fractions import Fraction as Q; from math import factorial
p, a = (json.load(open(f))["coeffs"] for f in sys.argv[1:])
sys.exit(len(p) != 11 or any(Q(p[d]) != factorial(5 * d) * Q(a[d]) for d in range(11)))' "$tmp/period25_10.json" "$tmp/aseries25_10.json"

step "mirror period of every registry case from its nef-partition factors to order 12 (exits 1 unless each equals the factorially modified A-series)"
"$PY" -c 'import sys
from grasscy.hypergeom import a_series, factorial_trick
from grasscy.laxmirror import canonical_gauge_coeffs, mirror_period, mirror_system
from grasscy.registry import registry_load
bad = []
for name, rc in sorted(registry_load().items()):
    labels = iter(range(1, rc.n + 1))
    partition = [tuple(next(labels) for _ in range(d)) for d in rc.degrees]
    ms = mirror_system(rc.k, rc.n, rc.degrees, partition, *canonical_gauge_coeffs(rc.k, rc.n))
    if mirror_period(ms, 12) != factorial_trick(a_series(rc.k, rc.n, 12), rc.degrees):
        bad.append(name)
sys.exit(bad and f"mirror period differs from the A-series for {bad}" or 0)'

step "A-series duality through the real entry point (G(2,5) = G(3,5) to order 60, G(2,6) = G(4,6) to order 40)"
for shapes in "2 5 3 5 60" "2 6 4 6 40"; do
  set -- $shapes
  "$PY" -m grasscy.cli aseries "$1" "$2" --order "$5" > "$tmp/a_kn.json"
  "$PY" -m grasscy.cli aseries "$3" "$4" --order "$5" > "$tmp/a_dual.json"
  test -s "$tmp/a_kn.json"
  cmp "$tmp/a_kn.json" "$tmp/a_dual.json"
done

step "A-series of G(3,6) and G(2,7) to order 60 (exits 1 unless the quantum-cohomology operator annihilates it)"
"$PY" -m grasscy.cli verify-conjecture 3 6 --order 60 > /dev/null
"$PY" -m grasscy.cli verify-conjecture 2 7 --order 60 > /dev/null

step "quantum-cohomology operators of G(2,8) and G(3,7), the largest input DIM_BOUND admits (exits 1 unless each annihilates the A-series to order 20)"
timeout 60 "$PY" -m grasscy.cli qh-operator 2 8 > /dev/null
timeout 60 "$PY" -m grasscy.cli qh-operator 3 7 > /dev/null

step "Yukawa coupling K_z of every registry case to order 200 (exits 1 unless it equals its rational-function fixture)"
for c in X4_G24 X113_G25 X122_G25 X11112_G26 X1111111_G27 X111111_G36; do
  timeout 60 "$PY" -m grasscy.cli yukawa --case "$c" --order 200 > /dev/null
done

step "normal form of every registry operator with its K_z to order 200 (the Calabi-Yau condition and the first-order equation on K_z)"
"$PY" -c 'import sys
from grasscy.mirror_analysis import normal_form_check, yukawa_z
from grasscy.pipeline import fit_operator
from grasscy.registry import registry_load
bad = [name for name, rc in sorted(registry_load().items())
       if not normal_form_check(op := fit_operator(rc), yukawa_z(op, rc.n0, 200), 200)]
sys.exit(bad and f"normal form fails for {bad}" or 0)'

step "all end-to-end checks passed"
