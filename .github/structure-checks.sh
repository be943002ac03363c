#!/usr/bin/env bash
# Every structural check CI makes, as one command: .github/structure-checks.sh
# (from any directory). It checks each row of .github/structure-checks.tsv,
# whose header gives the columns, then that each `pub fn` in the non-test part
# of crates/*/src (crates/bench excluded) is named as a whole word in crates
# src examples tests benchmark/src, outside a `fn <name>` definition and its
# own file's test module, or is listed with a reason in
# .github/uncalled-pub-fn-allow.tsv. Exits 1, naming each failure.
set -uo pipefail
shopt -s globstar
cd "$(dirname "$0")/.."
failed=0
fail() { echo "FAIL $1"; failed=1; }

# A file's test part starts at the `#[cfg(test)]` (and any attributes after
# it) that opens a `mod`. A `#[cfg(test)]` item above that point is an error
# (`broken`), so no non-test part ends early unseen.
TEST_PART='FNR == 1 { held = intest = 0 }
  held && /^[[:space:]]*#\[/ { next }
  held { if (!/^[[:space:]]*(pub(\([a-z]+\))? )?mod /) {
           printf "FAIL %s:%d: #[cfg(test)] item above the test module\n", FILENAME, held > "/dev/stderr"
           broken = 1 }
         held = 0; intest = 1 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { held = FNR; next }'

rows=0
line=0
while IFS=$'\t' read -r bound scope flavour regex paths sample why; do
  line=$((line + 1))
  case $bound in '#'* | '') continue ;; esac
  rows=$((rows + 1))
  row="structure-checks.tsv:$line ($why)"
  missing=0
  for path in $paths; do
    [ -e "$path" ] || { fail "$row: no path $path"; missing=1; }
  done
  [ "$missing" = 0 ] || continue
  grep -q"$flavour" -- "$regex" <<<"$sample" || fail "$row: its sample line does not match its regex"
  case $scope/$flavour in
    file/Pz) found=$(grep -rPzo -- "$regex" $paths | tr '\n\0' ' \n') ;;
    file/*) found=$(grep -rn"$flavour" -- "$regex" $paths) ;;
    names/*) found=$(find $paths | grep -"$flavour" -- "$regex") ;;
    nontest/*) found=$(for f in $(find $paths -type f -name '*.rs' | sort); do
      part=$(awk "$TEST_PART"' broken { exit 2 } intest { exit } { print }' "$f") || exit 2
      grep -n"$flavour" -- "$regex" <<<"$part" | sed "s|^|$f:|"
    done; true) ;;
    *) false ;;
  esac
  [ $? -le 1 ] || { fail "$row: cannot scan"; continue; }
  count=$(grep -c . <<<"$found")
  case $bound in
    0 | =*) [ "$count" -eq "${bound#=}" ] ;;
    '<='*) [ "$count" -le "${bound#<=}" ] ;;
    *) false ;;
  esac || { fail "$row: $count matching lines, allowed $bound"; sed 's/^/    /' <<<"$found" | head -20; }
done <.github/structure-checks.tsv

# A use is any whole word but the one after `fn`.
awk "$TEST_PART"'
  NR == FNR { if (!/^#/) allowed[$2, $1] = 1; next }
  FNR == 1 { lib = FILENAME ~ /^crates\/[^\/]+\/src\/.*\.rs$/ && FILENAME !~ /^crates\/bench\// }
  lib && !intest && match($0, /^[[:space:]]*pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name); def[FILENAME ":" FNR] = name }
  { words = $0; gsub(/[^A-Za-z0-9_]+/, " ", words); n = split(words, w, " ")
    for (i = 1; i <= n; i++) if (i == 1 || w[i - 1] != "fn") { used[w[i]]++; if (intest) own[FILENAME, w[i]]++ } }
  END {
    for (at in def) {
      file = at; sub(/:[0-9]+$/, "", file); name = def[at]
      if (used[name] - own[file, name] > 0) continue
      if ((file, name) in allowed) { delete allowed[file, name]; continue }
      printf "FAIL %s: pub fn %s is called nowhere; delete it or list it, with a reason, in .github/uncalled-pub-fn-allow.tsv\n", at, name; bad = 1 }
    for (k in allowed) {
      split(k, e, SUBSEP); printf "FAIL uncalled-pub-fn-allow.tsv: %s in %s is called, or gone; drop its line\n", e[2], e[1]; bad = 1 }
    exit bad || broken }' FS='\t' .github/uncalled-pub-fn-allow.tsv $(find crates src examples tests benchmark/src -type f | sort) | sort ||
  failed=1

[ "$failed" = 0 ] && echo "structure checks: $rows rows and the uncalled-pub-fn scan pass"
exit "$failed"
