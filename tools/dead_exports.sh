#!/usr/bin/env bash
# Dead-export scan: print every `val` declared in lib/**/*.mli whose name
# appears, as a whole word, in no .ml or .mll file outside its own
# module (lib, bin, bench, examples, loadbench and test are searched).
# Such a value has no caller and should be deleted, or hidden from the
# .mli if its module still uses it. Prints nothing when every export
# has a caller; exits 0 either way.
#
# The scan matches bare identifiers outside comments (nested (* ... *)
# are stripped first, so a word in a comment is no caller), so a name
# that also occurs as some other word elsewhere hides a dead export; it
# never reports a live one.
#
# Usage: bash tools/dead_exports.sh   (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
find lib bin bench examples loadbench test \( -name '*.ml' -o -name '*.mll' \) | while read -r f; do
  mkdir -p "$code/$(dirname "$f")"
  perl -0777 -pe '1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//gs' "$f" > "$code/$f"
done

for mli in $(find lib -name '*.mli' | sort); do
  own=${mli%i}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if ! (cd "$code" && grep -rlw -e "$v" .) | grep -qvx "./$own"; then
      echo "$mli: $v"
    fi
  done
done
