#!/usr/bin/env bash
# Bench-row identity: build git revision <rev> and the working tree (both
# RelWithDebInfo), run each named bench binary on both builds, and diff
# their stdout and any BENCH_*.csv they write. For refactors that must not
# move a published number.
#
#   tools/bench_identity.sh <rev> <bench> [args]... [<bench> [args]...]...
#
# A bench is a binary path relative to the build tree (examples/quickstart)
# or a bare name under bench/ (fig1_agreed_1g). Words starting with '-' are
# arguments to the bench before them:
#
#   tools/bench_identity.sh HEAD~1 fig1_agreed_1g fig_wan_topologies --smoke \
#       obs_smoke examples/ordering_comparison
#
# <rev> is exported with `git archive` (no worktree metadata is left in the
# repository). Builds and outputs go to $BENCH_IDENTITY_DIR (default: a new
# temporary directory); reusing a directory rebuilds incrementally. The two
# sides of each bench run concurrently. Exits nonzero if any output differs.
# Takes minutes (the full figure benches run for several), so ci.sh does not
# call it.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
REV="$1"
shift
WORK="${BENCH_IDENTITY_DIR:-$(mktemp -d)}"
JOBS="${JOBS:-$(nproc)}"
mkdir -p "${WORK}"
WORK="$(cd "${WORK}" && pwd)"

# Parse "<bench> [args]..." groups.
BENCHES=()
ARGS=()
for word in "$@"; do
  if [[ "${word}" == -* ]]; then
    [[ ${#BENCHES[@]} -gt 0 ]] || { echo "argument ${word} before any bench" >&2; exit 2; }
    ARGS[${#BENCHES[@]}-1]+=" ${word}"
  else
    [[ "${word}" == */* ]] || word="bench/${word}"
    BENCHES+=("${word}")
    ARGS+=("")
  fi
done
TARGETS=()
for b in "${BENCHES[@]}"; do TARGETS+=("$(basename "${b}")"); done

if [[ ! -d "${WORK}/base/src" ]]; then
  mkdir -p "${WORK}/base"
  git -C "${ROOT}" archive "${REV}" | tar -x -C "${WORK}/base"
fi
for side in base head; do
  src="${WORK}/base"
  [[ "${side}" == head ]] && src="${ROOT}"
  echo "=== ${side}: build ${TARGETS[*]} ==="
  cmake -B "${WORK}/${side}-build" -S "${src}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${WORK}/${side}-build" -j "${JOBS}" --target "${TARGETS[@]}" \
      >/dev/null
done

status=0
for i in "${!BENCHES[@]}"; do
  bench="${BENCHES[$i]}"
  read -r -a args <<<"${ARGS[$i]}"
  label="$(echo "${bench}${ARGS[$i]}" | tr ' /' '__')"
  echo "=== ${bench}${ARGS[$i]} ==="
  for side in base head; do
    out="${WORK}/out/${side}/${label}"
    rm -rf "${out}"
    mkdir -p "${out}"
    (
      cd "${out}"
      if ACCELRING_BENCH_DIR=. "${WORK}/${side}-build/${bench}" "${args[@]}" \
          >stdout 2>stderr; then
        echo 0 >exit_code
      else
        echo $? >exit_code
      fi
    ) &
  done
  wait
  base_out="${WORK}/out/base/${label}"
  head_out="${WORK}/out/head/${label}"
  files="$( (cd "${base_out}" && ls BENCH_*.csv 2>/dev/null || true
             cd "${head_out}" && ls BENCH_*.csv 2>/dev/null || true) | sort -u)"
  for f in exit_code stdout ${files}; do
    if cmp -s "${base_out}/${f}" "${head_out}/${f}"; then
      echo "identical: ${f}"
    else
      echo "DIFFERS:   ${f}"
      diff -u "${base_out}/${f}" "${head_out}/${f}" | head -40 || true
      status=1
    fi
  done
done
echo "outputs: ${WORK}/out/{base,head}"
exit "${status}"
