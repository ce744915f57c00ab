#!/usr/bin/env bash
# Calls and pins for an installed fockseries, run without the test extra.
#
#     bash tests/console_script.sh FOCKSERIES PYTHON
#
# FOCKSERIES is the console script (or any command running fockseries.cli)
# and PYTHON an interpreter that imports the same package.  Outputs go to a
# temporary directory, removed on exit.  Exits 0 when every check passes.
set -euo pipefail

fockseries=$1
python=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

all_converged() {  # no data row of the CSV is flagged unconverged
  if grep -v '^#' "$1" | grep -q ',false$'; then
    echo "unconverged row in $1" >&2
    exit 1
  fi
}

column() {  # column $2 of the data rows of CSV $1, space-separated
  grep '^[0-9]' "$1" | cut -d, -f"$2" | tr '\n' ' '
}

"$python" -c "
import sys, fockseries.cli
for module in ('numpy', 'dataclasses', 'json'):
    assert module not in sys.modules, module
"
"$python" -c "
import sys
sys.modules['numpy'] = None  # any import of numpy now fails
import fockseries.cli
sys.exit(fockseries.cli.main(['preset', '--name', 'fig1-left', '--steps', '3', '--out-dir', sys.argv[1]]))
" "$work/rfig1-no-numpy"
"$python" -c "
import sys
sys.modules['numpy'] = None  # any import of numpy now fails
import fockseries.cli
sys.exit(fockseries.cli.main(['preset', '--name', 'fig2', '--steps', '3', '--out-dir', sys.argv[1]]))
" "$work/rfig2-no-numpy"
test "$(ls "$work/rfig2-no-numpy" | wc -l)" -eq 7
"$python" -c "
import sys
sys.modules['numpy'] = None  # any import of numpy now fails
import fockseries.cli
sys.exit(fockseries.cli.main(['sweep', '--observable', 'linear_entropy', '--q', '0.5', '--k', '3', '--out', sys.argv[1]]))
" "$work/rs-no-numpy.csv"
"$fockseries" sweep --observable mandel_q --steps 3 --out "$work/rq.csv"
"$fockseries" sweep --observable linear_entropy --steps 3 --out "$work/rs.csv"
grep -qx '# policy=adaptive:1e-14' "$work/rq.csv"
grep -qx '# theta=0.7853981633974483' "$work/rs.csv"
"$fockseries" sweep --help > /dev/null
"$fockseries" preset --help > /dev/null
timeout 120 "$fockseries" sweep --observable linear_entropy --q 0.5 --k 3 --alpha-max 5 --steps 21 --out "$work/rs-full.csv"
"$fockseries" sweep --observable linear_entropy --q 0.3 --k 5 --alpha-max 1 --steps 11 --out "$work/rs-q03.csv"
all_converged "$work/rs-q03.csv"
timeout 60 "$fockseries" sweep --observable linear_entropy --q 0.9 --k 64 --alpha-max 1.6 --steps 3 --out "$work/rs-k64.csv"
all_converged "$work/rs-k64.csv"
timeout 60 "$fockseries" sweep --observable linear_entropy --q 0.9 --k 100 --alpha-max 0.03 --steps 16 --out "$work/rs-k100.csv"
all_converged "$work/rs-k100.csv"
timeout 60 "$fockseries" sweep --observable mandel_q --q 0.3 --k 5 --alpha-min 3 --alpha-max 3.4 --steps 3 --out "$work/rq-x2e6.csv"
all_converged "$work/rq-x2e6.csv"
test "$(column "$work/rq-x2e6.csv" 3)" = "1533620 1744245 1968418 "
"$fockseries" sweep --observable linear_entropy --q 0.5 --k 3 --policy fixed:100 --out "$work/rs-fixed.csv"
"$fockseries" sweep --observable linear_entropy --q 1 --k 129 --alpha-max 0.5 --steps 3 --out "$work/rs-k129.csv"
all_converged "$work/rs-k129.csv"
test "$(column "$work/rs-k129.csv" 3)" = "0 16 23 "
"$fockseries" sweep --observable mandel_q --q 1 --k 200 --alpha-max 2 --steps 5 --out "$work/rq-k200.csv"
all_converged "$work/rq-k200.csv"
test "$(column "$work/rq-k200.csv" 3)" = "0 26 40 53 66 "
"$python" -c "
import sys
sys.modules['numpy'] = None  # any import of numpy now fails
import fockseries.cli
sys.exit(fockseries.cli.main(['sweep', '--observable', 'mandel_q', '--q', '1', '--k', '200', '--alpha-max', '2', '--steps', '5', '--out', sys.argv[1]]))
" "$work/rq-k200-no-numpy.csv"
all_converged "$work/rq-k200-no-numpy.csv"
test "$(column "$work/rq-k200-no-numpy.csv" 3)" = "0 26 40 53 66 "
cmp "$work/rq-k200.csv" "$work/rq-k200-no-numpy.csv"
"$fockseries" preset --name fig2 --steps 3 --out-dir "$work/rfig2"
test -s "$work/rfig2/plot.gp"
"$fockseries" sweep --observable mandel_q --alpha-max inf --steps 3 --out "$work/rinf.csv" 2> "$work/rinf.err" && status=0 || status=$?
cat "$work/rinf.err"
test "$status" -eq 2
if grep -q Warning "$work/rinf.err"; then exit 1; fi
test ! -e "$work/rinf.csv"
"$fockseries" sweep --observable mandel_q --q 1e-300 --k 1 --alpha-max 1e-300 --steps 3 --out "$work/rtiny.csv"
grep -q '^5e-301,' "$work/rtiny.csv"
all_converged "$work/rtiny.csv"
"$fockseries" sweep --observable mandel_q --q 1 --k 0 --alpha-min 5e-9 --alpha-max 1e-8 --steps 2 --out "$work/rk0.csv"
test "$(grep -c '^[0-9]' "$work/rk0.csv")" -eq 2
all_converged "$work/rk0.csv"
"$fockseries" sweep --observable mandel_q --q 1 --k 0 --alpha-min 1e-4 --alpha-max 2e-4 --steps 2 --out "$work/rk0-poisson.csv"
test "$(grep -v '^#' "$work/rk0-poisson.csv" | tail -n +2 | cut -d, -f2 | tr '\n' ' ')" = "0.0 0.0 "
"$fockseries" sweep --observable linear_entropy --k 0 --steps 5 --out "$work/rs-k0.csv"
test "$(grep -v '^#' "$work/rs-k0.csv" | tail -n +2 | cut -d, -f2 | tr '\n' ' ')" = "0.0 0.0 0.0 0.0 0.0 "
for observable in mandel_q linear_entropy; do
  for n_max in 0 1; do
    "$fockseries" sweep --observable "$observable" --q 0.5 --k 3 --policy "fixed:$n_max" --out "$work/r-$observable-fixed$n_max.csv"
  done
done
timeout 60 "$fockseries" sweep --observable mandel_q --q 1 --k 2000000 --alpha-max 1e-3 --steps 3 --out "$work/rk2e6.csv"
test "$(column "$work/rk2e6.csv" 3)" = "0 8 11 "
"$fockseries" sweep --observable mandel_q --policy adaptive:1e-320 --steps 3 --out "$work/rsub.csv"
timeout 60 "$fockseries" sweep --observable mandel_q --q 1 --k 0 --alpha-min 120 --alpha-max 135 --steps 3 --out "$work/rq-cap.csv"
all_converged "$work/rq-cap.csv"
test "$(column "$work/rq-cap.csv" 3)" = "15328 17242 19268 "
"$fockseries" preset --name fig2 --alpha-max 2000 --steps 3 --out-dir "$work/rfail" && status=0 || status=$?
test "$status" -eq 3
test ! -e "$work/rfail"
"$python" -c "
from fockseries import penson_solomon_state
from fockseries.oracle import oracle_entropy, oracle_statistics
spec = penson_solomon_state(5.0, 3, 0.5)
s = oracle_entropy(spec).linear_entropy
q = oracle_statistics(spec).mandel_q
assert 0 < s < 1e-5 and -1 < q < 0, (s, q)
print('oracle at |alpha|=5, q=0.5, k=3: S =', s, 'Q =', q)
"
