#!/usr/bin/env bash
# Every structural check CI makes, as one command: .github/structure-checks.sh
# (from any directory). It checks each row of .github/structure-checks.tsv,
# whose header gives the columns, then that each `pub fn` in the non-test part
# of crates/*/src (crates/bench excluded) is used in crates src examples tests
# benchmark/src outside its own file's test module, or is listed with a reason
# in .github/uncalled-pub-fn-allow.tsv. A use is a call (`name(`, `name::<`)
# or a path (`::name`) outside comments and string literals, and not the
# `fn name(` that defines it. A use inside the body of a `pub fn` that is
# itself uncalled does not count: the scan repeats until no more functions
# drop out. Nor does a use inside the body of a `pub fn` of the same name, so
# two same-named functions that only call each other (a wrapper forwarding to
# the method it shadows) are both uncalled. Otherwise a use is matched by bare
# name, so a call to a same-named function or method of another type counts.
# Exits 1, naming each failure.
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

# A use is a call or a path in a line's code: `strip` blanks its string and
# char literals (a string may run on over lines: `instr`) and drops its `//`
# comment. `cur` is the `pub fn` whose body the line is in (its body ends when
# the brace depth is back at `top`); a use of its own name there is skipped,
# and `from[cur, name]` counts the other uses made there, which END discounts
# once `cur` is found uncalled.
awk "$TEST_PART"'
  function strip(line,    out, n, i, c, j) {
    if (!instr && line !~ /["\047]/) { sub(/\/\/.*/, "", line); return line }
    out = ""; n = length(line)
    for (i = 1; i <= n; i++) {
      c = substr(line, i, 1)
      if (instr) { if (c == "\\") i++; else if (c == "\"") instr = 0; continue }
      if (c == "\"") { instr = 1; out = out " "; continue }
      if (c == "/" && substr(line, i + 1, 1) == "/") break
      if (c == "\047" && substr(line, i + 1, 1) == "\\" && (j = index(substr(line, i + 3), "\047"))) { i += j + 2; c = " " }
      else if (c == "\047" && substr(line, i + 2, 1) == "\047") { i += 2; c = " " }
      out = out c }
    return out }
  NR == FNR { if (!/^#/) allowed[$2, $1] = 1; next }
  FNR == 1 { lib = FILENAME ~ /^crates\/[^\/]+\/src\/.*\.rs$/ && FILENAME !~ /^crates\/bench\//; instr = depth = 0; cur = "" }
  lib && !intest && match($0, /^[[:space:]]*pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
    cur = FILENAME ":" FNR; def[cur] = name; top = depth; inbody = 0 }
  { code = strip($0); opens = gsub(/\{/, "{", code); depth += opens - gsub(/\}/, "}", code)
    if (intest) cur = ""
    while (match(code, /[A-Za-z_][A-Za-z0-9_]*(\(|::<)|::[A-Za-z_][A-Za-z0-9_]*/)) {
      before = substr(code, 1, RSTART - 1); name = substr(code, RSTART, RLENGTH)
      code = substr(code, RSTART + RLENGTH)
      if (before ~ /(^|[^A-Za-z0-9_])fn[[:space:]]+$/) continue
      sub(/^::/, "", name); sub(/(\(|::<)$/, "", name)
      if (cur != "" && def[cur] == name) continue
      used[name]++; if (intest) own[FILENAME, name]++; if (cur != "") from[cur, name]++ }
    if (cur != "") { if (depth > top) inbody = 1; else if (inbody || opens) cur = "" } }
  END {
    do {
      dropped = 0
      for (at in def) {
        if ((at in dead) || (at in kept)) continue
        file = at; sub(/:[0-9]+$/, "", file); name = def[at]; n = used[name] - own[file, name]
        for (d in dead) n -= from[d, name]
        if (n > 0) continue
        if ((file, name) in allowed) { kept[at] = 1; delete allowed[file, name]; continue }
        dead[at] = 1; dropped = 1 }
    } while (dropped)
    for (at in dead) {
      printf "FAIL %s: pub fn %s is called nowhere; delete it or list it, with a reason, in .github/uncalled-pub-fn-allow.tsv\n", at, def[at]; bad = 1 }
    for (k in allowed) {
      split(k, e, SUBSEP); printf "FAIL uncalled-pub-fn-allow.tsv: %s in %s is called, or gone; drop its line\n", e[2], e[1]; bad = 1 }
    exit bad || broken }' FS='\t' .github/uncalled-pub-fn-allow.tsv $(find crates src examples tests benchmark/src -type f | sort) | sort ||
  failed=1

[ "$failed" = 0 ] && echo "structure checks: $rows rows and the uncalled-pub-fn scan pass"
exit "$failed"
